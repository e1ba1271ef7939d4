"""UID-corruption attacks (the paper's Section 3 attack class).

Two delivery mechanisms are modelled:

* **Remote overflow attacks** deliver the corruption through the mini-httpd's
  vulnerable header copy: a single HTTP request both corrupts the cached
  ``worker_uid`` and asks (via path traversal) for a root-only file, so a
  successful attack is directly observable in the response.
* **In-place corruptions** (single-bit flips, including the high-bit flip the
  31-bit mask cannot see) act directly on the targeted memory word.  They
  model fault-style attacks such as the heat-lamp attack the paper cites, and
  they exist mainly to map the *boundary* of the detection guarantee.

One cell builder covers both: :func:`prepare_uid_attack` takes any
:class:`~repro.api.spec.SystemSpec` -- the one-variant baseline, where the
paper's claim is that the attack succeeds, as well as any N-variant system,
where the UID variation must detect it except in the documented high-bit
blind spot -- and builds the cell's session from that spec.  The cell is a
:class:`~repro.attacks.outcomes.PreparedAttack`: a private host, a resumable
lockstep session and a finalizer that hands the finished session to
:func:`~repro.attacks.outcomes.decide`.  The campaign scheduler interleaves
the same cells that :func:`~repro.api.campaign.run_attack` runs one by one,
so every path gives identical outcomes by construction.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.api.builders import build_session
from repro.api.spec import SystemSpec
# Module (not name) import: repro.apps.catalog imports the payload builders
# from repro.attacks, so binding the module and resolving get_app at call
# time keeps the import order working from either end of the cycle.
from repro.apps import catalog as _catalog
from repro.attacks.outcomes import AttackOutcome, PreparedAttack, decide
from repro.attacks.payloads import traversal_path
from repro.core.nvariant import UIDCodec, VariantContext
from repro.kernel.host import build_standard_host
from repro.memory.corruption import CorruptionSpec

#: Marker proving the attacker read /etc/shadow (see the standard host image).
SHADOW_MARKER = b"secrethash"


@dataclasses.dataclass(frozen=True)
class UIDAttack:
    """One UID-corruption attack.

    Exactly one of ``payload`` (remote HTTP delivery) or ``corruption``
    (in-place fault) is set.  ``goal_marker`` is the byte string whose
    appearance in a response proves a remote attack reached its goal (for the
    default traversal payloads, content of the root-only shadow file).
    """

    name: str
    description: str
    payload: Optional[bytes] = None
    corruption: Optional[CorruptionSpec] = None
    goal_marker: bytes = SHADOW_MARKER
    #: Which registered serving app the payload targets (and whose drivers
    #: host the attack).  In-place corruptions ignore the wire format but
    #: keep the field so campaign rows group per app.
    app: str = "httpd"

    def __post_init__(self) -> None:
        if (self.payload is None) == (self.corruption is None):
            raise ValueError("exactly one of payload or corruption must be provided")

    @property
    def remote(self) -> bool:
        """True for attacks delivered over the request channel."""
        return self.payload is not None


def standard_uid_attacks(app: str = "httpd") -> list[UIDAttack]:
    """The attack suite used by the detection-matrix experiment.

    The same seven attack classes exist against every registered serving app;
    only the wire carrier of the overflow differs (both servers share one
    vulnerable state layout, so the overflow words are identical).
    """
    serving = _catalog.get_app(app)
    return [
        UIDAttack(
            name="full-word-root-overwrite",
            description="overflow overwrites worker_uid with 0 (root); complete value",
            payload=serving.uid_overwrite(0),
            app=app,
        ),
        UIDAttack(
            name="full-word-user-overwrite",
            description="overflow overwrites worker_uid with 1000 (masquerade as alice)",
            payload=serving.uid_overwrite(1000, path=traversal_path("/home/alice/diary.txt")),
            goal_marker=b"alice's private notes",
            app=app,
        ),
        UIDAttack(
            name="partial-1-byte-overwrite",
            description="overflow rewrites only the low byte of worker_uid",
            payload=serving.uid_overwrite(0, partial_bytes=1),
            app=app,
        ),
        UIDAttack(
            name="partial-2-byte-overwrite",
            description="overflow rewrites the low two bytes of worker_uid",
            payload=serving.uid_overwrite(0, partial_bytes=2),
            app=app,
        ),
        UIDAttack(
            name="partial-3-byte-overwrite",
            description="overflow rewrites the low three bytes of worker_uid",
            payload=serving.uid_overwrite(0, partial_bytes=3),
            app=app,
        ),
        UIDAttack(
            name="low-bit-flip",
            description=(
                "in-place flip of bit 0 of worker_uid (fault-style attack; an "
                "identical XOR delta commutes with the XOR reexpression, so the "
                "paper places it outside the remote-attacker guarantee)"
            ),
            corruption=CorruptionSpec(kind="bit-flip", payload=0),
            app=app,
        ),
        UIDAttack(
            name="high-bit-flip",
            description=(
                "in-place flip of bit 31: the sign bit is the one bit the "
                "0x7FFFFFFF mask leaves unflipped (Section 3.2's documented "
                "blind spot); the corrupted value is also a 'negative' UID the "
                "kernel treats specially"
            ),
            corruption=CorruptionSpec(kind="bit-flip", payload=31),
            app=app,
        ),
    ]


# ---------------------------------------------------------------------------
# The in-place corruption probe (fault-style attacks, e.g. single-bit flips)
# ---------------------------------------------------------------------------


def _corruption_probe_factory(attack: UIDAttack, *, transformed: bool):
    """Program factory for in-place corruption attacks.

    The probe reproduces the privilege lifecycle the corruption targets:
    cache the worker uid in memory, drop to it, escalate back to root for a
    privileged operation, *then* have the attacker corrupt the cached value
    (the same bit/bytes in every variant -- a fault-style attacker cannot aim
    different corruptions at different variants), and finally perform the
    security-critical re-drop that consults the corrupted value.  The attack
    reaches its goal when the process is still root after that drop.
    """

    def factory(context: VariantContext):
        libc = context.libc
        codec = context.uid_codec if transformed else UIDCodec.identity()

        def program():
            from repro.apps.httpd.vulnerable import build_server_state
            from repro.kernel.filesystem import O_RDONLY
            from repro.kernel.passwd import parse_passwd
            from repro.memory.corruption import apply_corruption

            opened = yield libc.open("/etc/passwd", O_RDONLY)
            data = (yield libc.read(opened.value, 8192)).value
            yield libc.close(opened.value)
            entries = parse_passwd(data.decode())
            worker_uid = next(e.uid for e in entries if e.name == "www-data")
            if transformed:
                worker_uid = (yield libc.uid_value(worker_uid)).value

            layout = build_server_state(
                context.address_space,
                worker_uid=worker_uid,
                worker_gid=worker_uid,
                admin_uid=codec.constant(0),
            )

            # Normal lifecycle: drop, then escalate for privileged maintenance.
            yield libc.seteuid(layout.worker_uid.get())
            yield libc.seteuid(codec.constant(0))

            # The attacker's fault lands on the cached value...
            apply_corruption(layout.worker_uid, attack.corruption)

            # ...which the program then trusts for its security-critical drop.
            corrupted = layout.worker_uid.get()
            if transformed:
                corrupted = (yield libc.uid_value(corrupted)).value
            yield libc.seteuid(corrupted)

            euid = (yield libc.geteuid()).value
            if transformed:
                still_root = (yield libc.cc_eq(euid, codec.root)).value
            else:
                still_root = euid == 0
            yield libc.exit(42 if still_root else 0)

        return program()

    return factory


def prepare_uid_attack(attack: UIDAttack, spec: SystemSpec) -> PreparedAttack:
    """Prepare *attack* against the system *spec* describes, one variant or many.

    A remote attack queues one benign request and then the attacker's on a
    host running the attack's app; it reaches its goal when any response
    carries ``attack.goal_marker``.  An in-place corruption runs the
    privilege probe, transformed whenever the spec is or the system is
    redundant (the in-place threat model presumes the deployed data-diversity
    build); it reaches its goal when the probe is still root after its drop.
    """
    if attack.remote:

        def start():
            serving = _catalog.get_app(attack.app)
            kernel = build_standard_host()
            serving.prepare_host(kernel)
            serving.connect(kernel, serving.benign_payload())
            serving.connect(kernel, attack.payload, client="attacker")
            factory = serving.make_factory(transformed=spec.transformed, max_requests=2)
            return build_session(spec, kernel, factory, name=serving.name)

        def finish(session) -> AttackOutcome:
            result = session.result()
            # Every connection of the host is scanned, so leaked content is
            # found whether it travelled on the request channel or on a
            # secondary one (an FTP data channel).
            goal = any(
                attack.goal_marker in connection.response_bytes()
                for connection in session.kernel.network.connections
            )
            lone = result.variants[0]
            quiet = "no alarm" if spec.redundant else f"exit={lone.exit_code} fault={lone.fault}"
            return decide(attack.name, spec, result, goal_reached=goal, quiet=quiet)

    else:
        factory = _corruption_probe_factory(attack, transformed=spec.transformed or spec.redundant)

        def start():
            return build_session(spec, build_standard_host(), factory, name="probe")

        def finish(session) -> AttackOutcome:
            result = session.result()
            goal = any(v.exit_code == 42 for v in result.variants)
            return decide(
                attack.name, spec, result, goal_reached=goal, quiet=attack.corruption.describe()
            )

    return PreparedAttack(attack.name, spec.name, start, finish)
