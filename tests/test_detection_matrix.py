"""The detection matrix as a regression suite.

Every attack in :mod:`repro.attacks` is run against all four variation
configurations -- no diversity, address partitioning, UID re-expression, and
both combined -- and each cell's outcome is pinned to the value the paper's
security argument requires.  A scaling or engine refactor that silently
weakens detection (or introduces false alarms that mask a compromise as
"detected") fails here, cell by cell.

Cell semantics (:class:`repro.attacks.outcomes.OutcomeKind`):

* ``UNDETECTED_COMPROMISE`` -- the attack reached its goal, no alarm: the
  configuration is defeated (expected for the undefended server and for the
  documented blind spots).
* ``DETECTED`` -- the monitor raised an alarm and the halt policy stopped the
  attack.
* ``NO_EFFECT`` / ``CRASHED`` -- the attack failed on its own (e.g. the
  low-bit flip produces a harmless non-root UID, an out-of-partition pointer
  kills the single process).
"""

import pytest

from repro.api.campaign import run_attack
from repro.api.spec import (
    ADDRESS_ORBIT_3_SPEC,
    ADDRESS_UID_SPEC,
    COMBINED_ORBIT_3_SPEC,
    STANDARD_SYSTEM_SPECS,
    UID_DIVERSITY_SPEC,
)
from repro.attacks.code_injection import (
    run_code_injection_tagged,
    run_code_injection_untagged,
)
from repro.attacks.memory_attacks import standard_address_attacks
from repro.attacks.outcomes import OutcomeKind
from repro.attacks.uid_attacks import standard_uid_attacks
from repro.core.alarm import AlarmType

#: The four variation configurations of the matrix, by configuration name.
CONFIGURATIONS = tuple(spec.name for spec in STANDARD_SYSTEM_SPECS)

UC = OutcomeKind.UNDETECTED_COMPROMISE
DET = OutcomeKind.DETECTED
NE = OutcomeKind.NO_EFFECT
CRASH = OutcomeKind.CRASHED

#: Expected outcome of every UID attack against every configuration, in
#: CONFIGURATIONS order (none, address, uid, address+uid).  Address
#: partitioning never sees a UID corruption (the identical overwrite decodes
#: identically without re-expression); the UID variation detects every
#: byte-granular overwrite and, as Section 3.2 documents, misses exactly the
#: sign-bit flip the 31-bit mask cannot re-express.
UID_MATRIX = {
    "full-word-root-overwrite": (UC, UC, DET, DET),
    "full-word-user-overwrite": (UC, UC, DET, DET),
    "partial-1-byte-overwrite": (UC, UC, DET, DET),
    "partial-2-byte-overwrite": (UC, UC, DET, DET),
    "partial-3-byte-overwrite": (UC, UC, DET, DET),
    # An identical low-bit XOR delta commutes with the XOR re-expression, so
    # no configuration sees it -- but it also only reaches a harmless UID.
    "low-bit-flip": (NE, NE, NE, NE),
    # The documented blind spot: bit 31 is the one bit XOR 0x7FFFFFFF keeps.
    "high-bit-flip": (UC, UC, UC, UC),
}

#: Expected outcome of every address-injection attack per configuration.
#: The pointer overwrite must plough through the three UID words to reach the
#: banner pointer, so the UID variation also detects it (at the corrupted
#: credential's first use) even though pointers are not its target type.
ADDRESS_MATRIX = {
    "absolute-address-injection": (UC, DET, DET, DET),
    "high-partition-address-injection": (CRASH, DET, DET, DET),
}


def _uid_attacks_by_name():
    return {attack.name: attack for attack in standard_uid_attacks()}


def _address_attacks_by_name():
    return {attack.name: attack for attack in standard_address_attacks()}


class TestUIDAttackMatrix:
    @pytest.mark.parametrize("configuration_index", range(len(CONFIGURATIONS)))
    @pytest.mark.parametrize("attack_name", sorted(UID_MATRIX))
    def test_cell_outcome(self, attack_name, configuration_index):
        attack = _uid_attacks_by_name()[attack_name]
        spec = STANDARD_SYSTEM_SPECS[configuration_index]
        outcome = run_attack(attack, spec)
        expected = UID_MATRIX[attack_name][configuration_index]
        assert outcome.kind is expected, outcome.describe()

    def test_matrix_covers_every_standard_uid_attack(self):
        assert set(UID_MATRIX) == set(_uid_attacks_by_name())

    def test_remote_detection_is_uid_divergence(self):
        """The guaranteed detections classify as UID divergence, not noise."""
        attack = _uid_attacks_by_name()["full-word-root-overwrite"]
        outcome = run_attack(attack, UID_DIVERSITY_SPEC)
        assert outcome.kind is DET
        assert AlarmType.UID_DIVERGENCE.value in outcome.detail

    def test_shadow_never_leaks_from_protected_configuration(self):
        """Detected means stopped: no protected run may still reach the goal."""
        for attack in standard_uid_attacks():
            outcome = run_attack(attack, ADDRESS_UID_SPEC)
            if outcome.kind is DET:
                assert not outcome.goal_reached, outcome.describe()


class TestAddressAttackMatrix:
    @pytest.mark.parametrize("configuration_index", range(len(CONFIGURATIONS)))
    @pytest.mark.parametrize("attack_name", sorted(ADDRESS_MATRIX))
    def test_cell_outcome(self, attack_name, configuration_index):
        attack = _address_attacks_by_name()[attack_name]
        # UID-bearing specs carry transformed=True, which is load-bearing: the
        # untransformed build diverges on benign traffic when UID
        # representations differ.
        outcome = run_attack(attack, STANDARD_SYSTEM_SPECS[configuration_index])
        expected = ADDRESS_MATRIX[attack_name][configuration_index]
        assert outcome.kind is expected, outcome.describe()

    def test_matrix_covers_every_standard_address_attack(self):
        assert set(ADDRESS_MATRIX) == set(_address_attacks_by_name())


class TestOrbitMatrixExtension:
    """The N=3 orbit columns: the same guarantees (and the same documented
    blind spots) must hold when either re-expression family is N-ary."""

    @pytest.mark.parametrize("attack_name", sorted(ADDRESS_MATRIX))
    def test_address_orbit_detects_every_injection(self, attack_name):
        attack = _address_attacks_by_name()[attack_name]
        for spec in (ADDRESS_ORBIT_3_SPEC, COMBINED_ORBIT_3_SPEC):
            outcome = run_attack(attack, spec)
            assert outcome.kind is DET, outcome.describe()

    @pytest.mark.parametrize("attack_name", sorted(UID_MATRIX))
    def test_combined_orbit_matches_the_2variant_uid_column(self, attack_name):
        """Layering the address orbit cannot weaken (or spuriously widen)
        the UID guarantee: the combined N=3 column equals the paper's
        2-variant address+uid column cell for cell."""
        attack = _uid_attacks_by_name()[attack_name]
        outcome = run_attack(attack, COMBINED_ORBIT_3_SPEC)
        expected = UID_MATRIX[attack_name][CONFIGURATIONS.index("2-variant-address+uid")]
        assert outcome.kind is expected, outcome.describe()


class TestCodeInjectionMatrix:
    def test_untagged_baseline_is_compromised(self):
        outcome = run_code_injection_untagged()
        assert outcome.kind is UC and outcome.goal_reached

    def test_tagging_detects_injection(self):
        outcome = run_code_injection_tagged()
        assert outcome.kind is DET and not outcome.goal_reached


class TestMatrixShape:
    def test_all_four_configurations_are_exercised(self):
        assert CONFIGURATIONS == (
            "single-process",
            "2-variant-address",
            "2-variant-uid",
            "2-variant-address+uid",
        )

    def test_no_configuration_weakens_the_paper_guarantee(self):
        """Every in-guarantee remote UID attack is detected by both
        UID-bearing configurations and by neither UID-less one."""
        for name, row in UID_MATRIX.items():
            attack = _uid_attacks_by_name()[name]
            if not attack.remote:
                continue
            none_cfg, address_cfg, uid_cfg, both_cfg = row
            assert uid_cfg is DET and both_cfg is DET
            assert none_cfg is UC and address_cfg is UC
