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

Each attack can be run against a single-process server (where the paper's
claim is that it succeeds) and against any N-variant configuration (where the
UID variation must detect it, except in the documented high-bit blind spot).

Every driver is split into a ``prepare_*`` half that builds a
:class:`~repro.attacks.outcomes.PreparedAttack` -- a private kernel, a
resumable :class:`~repro.engine.session.NVariantSession` and the outcome
finalizer -- and a ``run_*`` half that simply drives the prepared cell to
completion.  The campaign scheduler interleaves the same prepared cells, so
serial and engine-parallel campaigns share one construction path and produce
identical outcomes by construction.  The single-process deployments run as
``num_variants=1`` sessions (the monitor degenerates to a no-op for N=1), so
the engine is the only execution path left.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.api.builders import build_session
from repro.api.spec import SINGLE_PROCESS_SPEC, SystemSpec, UID_DIVERSITY_SPEC
# Module (not name) import: repro.apps.catalog imports the payload builders
# from repro.attacks, so binding the module and resolving get_app at call
# time keeps the import order working from either end of the cycle.
from repro.apps import catalog as _catalog
from repro.attacks.outcomes import AttackOutcome, OutcomeKind, PreparedAttack, classify
from repro.attacks.payloads import traversal_path
from repro.core.nvariant import UIDCodec, VariantContext
from repro.kernel.host import build_standard_host
from repro.kernel.kernel import SimulatedKernel
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
# Remote (request-channel-delivered) attacks against a registered serving app
# ---------------------------------------------------------------------------


def _attack_goal_reached(kernel: SimulatedKernel, marker: bytes = SHADOW_MARKER) -> bool:
    """True when any response leaked the attack's protected target content.

    Deliberately app-agnostic: the scan covers every connection ever made on
    the host, so leaked content is found whether it travelled on an HTTP
    response or on an FTP data channel.
    """
    return any(marker in conn.response_bytes() for conn in kernel.network.connections)


def _prepare_remote_host(attack: UIDAttack, *, warmup_requests: int):
    """Build the attacked host: app state, warmup traffic, the attack itself.

    Returns ``(kernel, serving app)``; the caller builds the server factory
    and session.  All app specifics (extra host files, secondary channels,
    benign payload shape) come from the catalog entry.
    """
    serving = _catalog.get_app(attack.app)
    kernel = build_standard_host()
    serving.prepare_host(kernel)
    for _ in range(warmup_requests):
        serving.connect(kernel, serving.benign_payload())
    serving.connect(kernel, attack.payload, client="attacker")
    return kernel, serving


def prepare_remote_attack_single(
    attack: UIDAttack,
    *,
    transformed: bool = False,
    warmup_requests: int = 1,
    configuration: str | None = None,
) -> PreparedAttack:
    """Prepare a remote attack against the single-process server (no redundancy).

    The undefended deployment runs as a ``num_variants=1`` session: with a
    single variant the monitor can never observe a divergence, so the cell's
    ``detected`` is structurally ``False`` -- exactly the paper's baseline.
    """
    if not attack.remote:
        raise ValueError(f"{attack.name} is not a remote attack")
    if configuration is None:
        configuration = "single-process" + ("-transformed" if transformed else "")

    def start():
        kernel, serving = _prepare_remote_host(attack, warmup_requests=warmup_requests)
        factory = serving.make_factory(
            transformed=transformed, max_requests=warmup_requests + 1
        )
        spec = dataclasses.replace(SINGLE_PROCESS_SPEC, transformed=transformed)
        return build_session(spec, kernel, factory, name=serving.name)

    def finish(session) -> AttackOutcome:
        result = session.result()
        variant = result.variants[0]
        goal = _attack_goal_reached(session.kernel, attack.goal_marker)
        crashed = not variant.exited_normally
        kind = classify(goal_reached=goal, detected=False, crashed=crashed)
        return AttackOutcome(
            attack=attack.name,
            configuration=configuration,
            kind=kind,
            goal_reached=goal,
            detected=False,
            detail=f"exit={variant.exit_code} fault={variant.fault}",
        )

    return PreparedAttack(attack.name, configuration, start, finish)


def run_remote_attack_single(
    attack: UIDAttack,
    *,
    transformed: bool = False,
    warmup_requests: int = 1,
    configuration: str | None = None,
) -> AttackOutcome:
    """Run a remote attack against the single-process server (no redundancy)."""
    return prepare_remote_attack_single(
        attack,
        transformed=transformed,
        warmup_requests=warmup_requests,
        configuration=configuration,
    ).run()


def prepare_remote_attack_nvariant(
    attack: UIDAttack,
    spec: SystemSpec = UID_DIVERSITY_SPEC,
    *,
    warmup_requests: int = 1,
) -> PreparedAttack:
    """Prepare a remote attack against a declaratively specified N-variant system."""
    if not attack.remote:
        raise ValueError(f"{attack.name} is not a remote attack")

    def start():
        kernel, serving = _prepare_remote_host(attack, warmup_requests=warmup_requests)
        factory = serving.make_factory(
            transformed=spec.transformed, max_requests=warmup_requests + 1
        )
        return build_session(spec, kernel, factory, name=serving.name)

    def finish(session) -> AttackOutcome:
        result = session.result()
        goal = _attack_goal_reached(session.kernel, attack.goal_marker)
        detected = result.attack_detected
        kind = classify(goal_reached=goal, detected=detected)
        return AttackOutcome(
            attack=attack.name,
            configuration=spec.name,
            kind=kind,
            goal_reached=goal,
            detected=detected,
            detail=result.first_alarm().describe() if detected else "no alarm",
        )

    return PreparedAttack(attack.name, spec.name, start, finish)


def run_remote_attack_nvariant(
    attack: UIDAttack,
    spec: SystemSpec = UID_DIVERSITY_SPEC,
    *,
    warmup_requests: int = 1,
) -> AttackOutcome:
    """Run a remote attack against a declaratively specified N-variant system."""
    return prepare_remote_attack_nvariant(
        attack, spec, warmup_requests=warmup_requests
    ).run()


# ---------------------------------------------------------------------------
# In-place corruption attacks (fault-style, e.g. single-bit flips)
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

            opened = yield from libc.open("/etc/passwd", O_RDONLY)
            data = (yield from libc.read(opened.value, 8192)).value
            yield from libc.close(opened.value)
            entries = parse_passwd(data.decode())
            worker_uid = next(e.uid for e in entries if e.name == "www-data")
            if transformed:
                worker_uid = (yield from libc.uid_value(worker_uid)).value

            layout = build_server_state(
                context.address_space,
                worker_uid=worker_uid,
                worker_gid=worker_uid,
                admin_uid=codec.constant(0),
            )

            # Normal lifecycle: drop, then escalate for privileged maintenance.
            yield from libc.seteuid(layout.worker_uid.get())
            yield from libc.seteuid(codec.constant(0))

            # The attacker's fault lands on the cached value...
            apply_corruption(layout.worker_uid, attack.corruption)

            # ...which the program then trusts for its security-critical drop.
            corrupted = layout.worker_uid.get()
            if transformed:
                corrupted = (yield from libc.uid_value(corrupted)).value
            yield from libc.seteuid(corrupted)

            euid = (yield from libc.geteuid()).value
            if transformed:
                still_root = (yield from libc.cc_eq(euid, codec.root)).value
            else:
                still_root = euid == 0
            yield from libc.exit(42 if still_root else 0)

        return program()

    return factory


def prepare_corruption_attack_single(
    attack: UIDAttack,
    *,
    transformed: bool = False,
    configuration: str | None = None,
) -> PreparedAttack:
    """Prepare an in-place corruption attack with no redundancy."""
    if attack.remote:
        raise ValueError(f"{attack.name} is a remote attack")
    if configuration is None:
        configuration = "single-process" + ("-transformed" if transformed else "")

    def start():
        kernel = build_standard_host()
        return build_session(
            SINGLE_PROCESS_SPEC,
            kernel,
            _corruption_probe_factory(attack, transformed=transformed),
            name="probe",
        )

    def finish(session) -> AttackOutcome:
        result = session.result()
        goal = any(v.exit_code == 42 for v in result.variants)
        crashed = any(not v.exited_normally for v in result.variants)
        kind = classify(goal_reached=goal, detected=False, crashed=crashed)
        return AttackOutcome(
            attack=attack.name,
            configuration=configuration,
            kind=kind,
            goal_reached=goal,
            detected=False,
            detail=attack.corruption.describe(),
        )

    return PreparedAttack(attack.name, configuration, start, finish)


def prepare_corruption_attack_nvariant(
    attack: UIDAttack,
    spec: SystemSpec = UID_DIVERSITY_SPEC,
) -> PreparedAttack:
    """Prepare an in-place corruption attack against a specified N-variant system.

    The corruption probe models the transformed build (the in-place threat
    model presumes the deployed data-diversity binary), so the probe is
    always transformed regardless of ``spec.transformed``.
    """
    if attack.remote:
        raise ValueError(f"{attack.name} is a remote attack")

    def start():
        kernel = build_standard_host()
        return build_session(
            spec,
            kernel,
            _corruption_probe_factory(attack, transformed=True),
            name="probe",
        )

    def finish(session) -> AttackOutcome:
        result = session.result()
        goal = any(v.exit_code == 42 for v in result.variants)
        detected = result.attack_detected
        kind = classify(goal_reached=goal, detected=detected)
        return AttackOutcome(
            attack=attack.name,
            configuration=spec.name,
            kind=kind,
            goal_reached=goal,
            detected=detected,
            detail=result.first_alarm().describe() if detected else attack.corruption.describe(),
        )

    return PreparedAttack(attack.name, spec.name, start, finish)


def prepare_uid_attack(
    attack: UIDAttack, spec: SystemSpec = UID_DIVERSITY_SPEC
) -> PreparedAttack:
    """Prepare the appropriate cell for *attack* against the specified system."""
    if spec.redundant:
        if attack.remote:
            return prepare_remote_attack_nvariant(attack, spec)
        return prepare_corruption_attack_nvariant(attack, spec)
    if attack.remote:
        return prepare_remote_attack_single(
            attack, transformed=spec.transformed, configuration=spec.name
        )
    return prepare_corruption_attack_single(
        attack, transformed=spec.transformed, configuration=spec.name
    )


def run_uid_attack(attack: UIDAttack, spec: SystemSpec = UID_DIVERSITY_SPEC) -> AttackOutcome:
    """Dispatch an attack to the appropriate driver for the specified system."""
    return prepare_uid_attack(attack, spec).run()
