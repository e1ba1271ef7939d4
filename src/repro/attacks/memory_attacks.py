"""Absolute-address injection attacks (the Figure 1 attack class).

The attack overwrites the server's banner pointer with an attacker-chosen
absolute address via the same header overflow used by the UID attacks.  On
the next request the server dereferences the pointer:

* in a one-variant deployment the injected address is simply read (an
  information-disclosure/point-the-program-anywhere primitive);
* under address-space partitioning the injected address lies in at most one
  variant's partition, so a sibling variant segfaults and the monitor
  reports the attack -- the guarantee Figure 1 illustrates.

:func:`prepare_address_attack` builds the cell for either deployment from
its :class:`~repro.api.spec.SystemSpec`, and
:func:`~repro.attacks.outcomes.decide` judges it.  The extended partitioning
variation is also exercised with a *partial* pointer overwrite (low bytes
only; :class:`~repro.attacks.mutators.PartialPointerAttack`), the case plain
partitioning cannot detect when the attacker preserves the high byte.
"""

from __future__ import annotations

import dataclasses

from repro.api.builders import build_session
from repro.api.spec import SystemSpec
# Module (not name) import: repro.apps.catalog imports the payload builders
# from this package, so binding the module and resolving get_app at call time
# keeps the import order working from either end of the cycle.
from repro.apps import catalog as _catalog
from repro.apps.httpd.vulnerable import BANNER_REGION_BASE
from repro.attacks.outcomes import AttackOutcome, PreparedAttack, decide
from repro.kernel.host import build_standard_host

#: An absolute address the attacker aims the banner pointer at: it lies in
#: variant 0's partition (high bit clear), a few words into the banner region,
#: so variant 0 reads it happily while variant 1 faults.
INJECTED_ABSOLUTE_ADDRESS = BANNER_REGION_BASE + 8


@dataclasses.dataclass(frozen=True)
class AddressInjectionAttack:
    """A pointer-overwrite attack delivered through the header overflow."""

    name: str
    description: str
    address: int
    #: Which registered serving app carries the overflow on its wire format.
    app: str = "httpd"

    def payload(self) -> bytes:
        """The corrupting request (a later benign request triggers the use)."""
        return _catalog.get_app(self.app).pointer_overwrite(self.address)


def standard_address_attacks(app: str = "httpd") -> list[AddressInjectionAttack]:
    """The address-injection attacks used by the Figure 1 experiment."""
    return [
        AddressInjectionAttack(
            name="absolute-address-injection",
            description="complete pointer overwrite with an absolute address",
            address=INJECTED_ABSOLUTE_ADDRESS,
            app=app,
        ),
        AddressInjectionAttack(
            name="high-partition-address-injection",
            description="pointer aimed into the high partition (valid only in variant 1)",
            address=0x80000000 | INJECTED_ABSOLUTE_ADDRESS,
            app=app,
        ),
    ]


def prepare_address_attack(attack: AddressInjectionAttack, spec: SystemSpec) -> PreparedAttack:
    """Prepare *attack* against the system *spec* describes, one variant or many.

    The Figure 1 sequence is queued on a host running the attack's app: a
    benign request, the corrupting one, then a benign request that makes the
    server dereference the pointer.  The attack reaches its goal when that
    dereference goes through: every variant exits cleanly and none alarms.
    Any spec whose stack contains the UID variation must set
    ``transformed=True``, since the untransformed server diverges on benign
    traffic under diversified UID representations.
    """

    def start():
        serving = _catalog.get_app(attack.app)
        kernel = build_standard_host()
        serving.prepare_host(kernel)
        serving.connect(kernel, serving.benign_payload())
        serving.connect(kernel, attack.payload(), client="attacker")
        serving.connect(kernel, serving.benign_payload(serving.alternate_path), client="attacker")
        factory = serving.make_factory(transformed=spec.transformed, max_requests=3)
        return build_session(spec, kernel, factory, name=serving.name)

    def finish(session) -> AttackOutcome:
        result = session.result()
        quiet = "no alarm" if spec.redundant else f"fault={result.variants[0].fault}"
        return decide(
            attack.name, spec, result, goal_reached=result.completed_normally, quiet=quiet
        )

    return PreparedAttack(attack.name, spec.name, start, finish)
