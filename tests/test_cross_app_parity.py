"""Cross-application parity: the guarantees are app-independent.

The paper's security argument never mentions HTTP: detection rests on data
diversity at the syscall boundary, so swapping the protected workload must
not move a single cell of the detection matrix.  Both registered serving
apps share one vulnerable state layout and one overflow wire format, and
this suite pins every Table-2/Table-3 attack class to the *same*
detected/undetected classification on httpd and ftpd alike.  Its benign
half is a differential oracle: under every re-expression family, each app's
protected server answers a request mix byte for byte like the unprotected
single process.
"""

import pytest

from repro.analysis.experiments.apps import diversity_spec
from repro.api.campaign import run_attack
from repro.api.spec import (
    ADDRESS_UID_SPEC,
    STANDARD_SYSTEM_SPECS,
    keyed_uid_spec,
    uid_orbit_spec,
)
from repro.apps.catalog import RequestMixEntry, app_names, get_app
from repro.apps.clients.webbench import WebBenchWorkload, drive_nvariant, drive_standalone
from repro.attacks.memory_attacks import standard_address_attacks
from repro.attacks.outcomes import OutcomeKind
from repro.attacks.uid_attacks import standard_uid_attacks
from repro.kernel.host import build_standard_host

APPS = ("httpd", "ftpd")

UC = OutcomeKind.UNDETECTED_COMPROMISE
DET = OutcomeKind.DETECTED
NE = OutcomeKind.NO_EFFECT
CRASH = OutcomeKind.CRASHED

#: Expected outcomes per configuration (single, address, uid, address+uid),
#: identical for every registered app -- the parity being asserted.
PARITY_MATRIX = {
    "full-word-root-overwrite": (UC, UC, DET, DET),
    "full-word-user-overwrite": (UC, UC, DET, DET),
    "partial-1-byte-overwrite": (UC, UC, DET, DET),
    "partial-2-byte-overwrite": (UC, UC, DET, DET),
    "partial-3-byte-overwrite": (UC, UC, DET, DET),
    "low-bit-flip": (NE, NE, NE, NE),
    "high-bit-flip": (UC, UC, UC, UC),
    "absolute-address-injection": (UC, DET, DET, DET),
    "high-partition-address-injection": (CRASH, DET, DET, DET),
}


def _attacks(app):
    by_name = {attack.name: attack for attack in standard_uid_attacks(app)}
    by_name.update(
        {attack.name: attack for attack in standard_address_attacks(app)}
    )
    return by_name


def test_both_apps_are_registered():
    assert set(APPS) <= set(app_names())


def test_matrix_covers_every_standard_attack():
    assert set(PARITY_MATRIX) == set(_attacks("httpd"))


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("spec_index", range(len(STANDARD_SYSTEM_SPECS)))
@pytest.mark.parametrize("attack_name", sorted(PARITY_MATRIX))
def test_cell_classification_is_app_independent(app, attack_name, spec_index):
    attack = _attacks(app)[attack_name]
    spec = STANDARD_SYSTEM_SPECS[spec_index]
    outcome = run_attack(attack, spec)
    expected = PARITY_MATRIX[attack_name][spec_index]
    assert outcome.kind is expected, f"{app}: {outcome.describe()}"


@pytest.mark.parametrize("attack_name", sorted(PARITY_MATRIX))
def test_apps_agree_cell_for_cell(attack_name):
    """Belt and braces: compare the two apps' raw outcome kinds directly,
    so the parity claim cannot rot if PARITY_MATRIX is edited."""
    for spec in STANDARD_SYSTEM_SPECS:
        kinds = []
        for app in APPS:
            kinds.append(run_attack(_attacks(app)[attack_name], spec).kind)
        assert kinds[0] is kinds[1], f"{attack_name} @ {spec.name}: {kinds}"


# -- byte parity with the unprotected server -----------------------------------

#: One stack per re-expression family: the paper's address+uid pair, the
#: N=3 UID orbit, the apps experiment's fd+address+uid stack, and a keyed
#: UID scheme with a fixed seed.
PARITY_SPECS = (
    ADDRESS_UID_SPEC,
    uid_orbit_spec(3),
    diversity_spec(2),
    keyed_uid_spec(2, seed=9),
)


def _app_host(app):
    kernel = build_standard_host()
    get_app(app).prepare_host(kernel)
    return kernel


@pytest.mark.parametrize("spec", PARITY_SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("app", app_names())
def test_protected_server_answers_byte_for_byte_like_the_unprotected_one(app, spec):
    """Benign traffic through any protected stack reads exactly like the
    single transformed process serving it: the same bytes on every
    connection, in the same order, and no alarm."""
    mix = tuple(RequestMixEntry(entry.path) for entry in get_app(app).default_mix)
    workload = WebBenchWorkload(
        app=app, total_requests=len(mix), mix=mix, requests_per_connection=2
    )
    protected = _app_host(app)
    measurement, result = drive_nvariant(workload, spec, multiplex=2, kernel=protected)
    reference = _app_host(app)
    expected = drive_standalone(
        workload, transformed=spec.transformed, multiplex=2, kernel=reference
    )
    assert not result.alarms
    assert measurement.completed_ok and expected.completed_ok
    served = [c.response_bytes() for c in protected.network.connections]
    assert served == [c.response_bytes() for c in reference.network.connections]
