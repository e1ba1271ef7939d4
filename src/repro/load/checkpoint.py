"""Session checkpoint and restore: the parts of engine-to-engine migration.

A production fleet drains nodes: a serving session must be movable to
another engine (another kernel, typically another OS process or host)
without clients noticing.  `NVariantSession` has been resumable since PR 1,
so a checkpoint is *serialization*, not surgery: the declarative
construction recipe (the stamped :class:`~repro.api.spec.SystemSpec` plus
the serving-app configuration), the still-queued client conversations
harvested from the kernel's listeners, and -- crucially -- every keyed
scheme's drawn secret.  Restoring replays the recipe, installs the recorded
secrets *before* the variant processes spawn (address spaces are carved at
spawn from the scheme's layout), and re-queues the pending wire bytes, so
the restored session serves byte-identical responses to the one it
replaced.

Checkpoints are quiescent-point snapshots: a session may be checkpointed
fresh (no round stepped yet) or once it has ended (a terminal state), never
mid-round -- variant program state lives in running generators, which do
not serialize.  The open-loop driver (:mod:`repro.load.driver`) migrates a
session at an idle accept, where the server declines to wait and exits
cleanly, or at a monitor halt; either way the session has ended.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional

from repro.api.builders import build_session, build_variations
from repro.api.spec import SystemSpec
from repro.apps.catalog import ServingApp, get_app
from repro.engine.session import NVariantSession, SessionState
from repro.kernel.host import build_standard_host
from repro.load.arrivals import LoadError
from repro.memory.partition import KeyedScheme, PartitionSchemeError


def _require_known_keys(kind: str, data: Mapping[str, Any], known: frozenset) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise LoadError(
            f"unknown {kind} keys: {', '.join(unknown)}; expected a subset of "
            f"{', '.join(sorted(known))}"
        )


def _field(kind: str, data: Mapping[str, Any], field: str) -> Any:
    """``data[field]``, or a :class:`LoadError` naming the missing field."""
    if not isinstance(data, Mapping):
        raise LoadError(f"a {kind} must be an object, got {type(data).__name__}")
    try:
        return data[field]
    except KeyError:
        raise LoadError(f"{kind} is missing {field!r}") from None


def _int(kind: str, field: str, value: Any) -> int:
    """*value* as the integer *field* must hold, or a :class:`LoadError` naming it."""
    if value.__class__ is not int:
        raise LoadError(f"{kind} {field!r} must be an integer, got {value!r}")
    return value


def _secret(entry: Any) -> tuple[int, tuple[int, ...]]:
    """One ``{"position": ..., "values": [...]}`` secret entry, parsed."""
    kind = "checkpoint secret"
    position = _int(kind, "position", _field(kind, entry, "position"))
    values = _field(kind, entry, "values")
    _require_known_keys(kind, entry, frozenset({"position", "values"}))
    if not isinstance(values, (list, tuple)):
        raise LoadError(f"{kind} 'values' must be a list of integers, got {values!r}")
    return position, tuple(_int(kind, "values", value) for value in values)


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """The serving-app half of a session's construction recipe."""

    app: str
    max_requests: Optional[int] = None
    multiplex: int = 1

    _KEYS = frozenset({"app", "max_requests", "multiplex"})

    def to_dict(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "max_requests": self.max_requests,
            "multiplex": self.multiplex,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingConfig":
        _require_known_keys("serving config", data, cls._KEYS)
        return cls(
            app=data["app"],
            max_requests=data.get("max_requests"),
            multiplex=data.get("multiplex", 1),
        )


@dataclasses.dataclass(frozen=True)
class PendingRequest:
    """One not-yet-accepted client connection, as wire bytes on a port."""

    port: int
    client: str
    data: bytes

    def to_dict(self) -> dict[str, Any]:
        return {"client": self.client, "data": self.data.hex(), "port": self.port}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PendingRequest":
        kind = "pending request"
        port = _int(kind, "port", _field(kind, data, "port"))
        client = str(_field(kind, data, "client"))
        wire = _field(kind, data, "data")
        _require_known_keys(kind, data, frozenset({"client", "data", "port"}))
        try:
            wire = bytes.fromhex(wire)
        except (TypeError, ValueError):
            raise LoadError(f"{kind} 'data' must be a hex string, got {wire!r}") from None
        return cls(port=port, client=client, data=wire)


@dataclasses.dataclass(frozen=True)
class SessionCheckpoint:
    """Everything needed to continue a quiescent session elsewhere."""

    session_name: str
    spec: SystemSpec
    serving: ServingConfig
    #: Cumulative progress at checkpoint time (informational: a restored
    #: session starts fresh counters; the driver carries the totals).
    rounds_completed: int = 0
    ticks_consumed: int = 0
    #: Queued-but-unserved client conversations, in per-port FIFO order.
    pending: tuple[PendingRequest, ...] = ()
    #: ``(variation position, secret values)`` for every keyed variation.
    secrets: tuple[tuple[int, tuple[int, ...]], ...] = ()
    version: int = 1

    _KEYS = frozenset(
        {
            "session_name",
            "spec",
            "serving",
            "rounds_completed",
            "ticks_consumed",
            "pending",
            "secrets",
            "version",
        }
    )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (round-trips through :meth:`from_dict`)."""
        return {
            "pending": [entry.to_dict() for entry in self.pending],
            "rounds_completed": self.rounds_completed,
            "secrets": [
                {"position": position, "values": list(values)}
                for position, values in self.secrets
            ],
            "serving": self.serving.to_dict(),
            "session_name": self.session_name,
            "spec": self.spec.to_dict(),
            "ticks_consumed": self.ticks_consumed,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionCheckpoint":
        _require_known_keys("checkpoint", data, cls._KEYS)
        version = data.get("version", 1)
        if version != 1:
            raise LoadError(f"unsupported checkpoint version {version!r}")
        return cls(
            session_name=str(data["session_name"]),
            spec=SystemSpec.from_dict(data["spec"]),
            serving=ServingConfig.from_dict(data["serving"]),
            rounds_completed=int(data.get("rounds_completed", 0)),
            ticks_consumed=int(data.get("ticks_consumed", 0)),
            pending=tuple(
                PendingRequest.from_dict(entry) for entry in data.get("pending", ())
            ),
            secrets=tuple(_secret(entry) for entry in data.get("secrets", ())),
            version=1,
        )


def keyed_secrets(session: NVariantSession) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every keyed variation's current secret, by stack position."""
    return tuple(
        (position, tuple(variation.scheme.secret()))
        for position, variation in enumerate(session.variations)
        if isinstance(variation.scheme, KeyedScheme)
    )


def build_serving_session(
    spec: SystemSpec,
    app: "str | ServingApp",
    *,
    name: Optional[str] = None,
    max_requests: Optional[int] = None,
    multiplex: int = 1,
) -> NVariantSession:
    """Build a checkpointable serving session: spec + app, stamps included.

    The standard entry point for load-driver and migration code: the session
    carries both halves of its construction recipe (``session.spec`` from
    :func:`~repro.api.builders.build_session`, ``session.serving`` from
    here), which is exactly what :func:`checkpoint` serializes.
    """
    app_record = get_app(app) if isinstance(app, str) else app
    kernel = build_standard_host()
    app_record.prepare_host(kernel)
    factory = app_record.make_factory(
        transformed=spec.transformed, max_requests=max_requests, multiplex=multiplex
    )
    session = build_session(spec, kernel, factory, name=name)
    session.serving = ServingConfig(
        app=app_record.name, max_requests=max_requests, multiplex=multiplex
    )
    return session


def checkpoint(session: NVariantSession) -> SessionCheckpoint:
    """Snapshot a quiescent serving session into a JSON-round-trippable record."""
    if session.spec is None or session.serving is None:
        raise LoadError(
            f"session {session.name!r} carries no construction recipe; build it "
            "via repro.load.checkpoint.build_serving_session to checkpoint it"
        )
    if session.state is SessionState.RUNNING and session.rounds > 0:
        raise LoadError(
            f"session {session.name!r} is mid-burst (round {session.rounds}); "
            "checkpoints are taken fresh or once the session has ended"
        )
    pending = []
    for port in sorted(session.kernel.network.listeners):
        listener = session.kernel.network.listeners[port]
        for connection in listener.pending:
            pending.append(
                PendingRequest(
                    port=port,
                    client=connection.client,
                    data=bytes(connection.inbound),
                )
            )
    return SessionCheckpoint(
        session_name=session.name,
        spec=session.spec,
        serving=session.serving,
        rounds_completed=session.rounds,
        ticks_consumed=session.virtual_elapsed,
        pending=tuple(pending),
        secrets=keyed_secrets(session),
    )


def restore(
    cp: SessionCheckpoint,
    *,
    name: Optional[str] = None,
) -> NVariantSession:
    """Rebuild a runnable session from a checkpoint on a fresh kernel.

    Secrets are installed into the freshly built variation stack *before*
    the session spawns its variant processes -- address spaces are carved
    from the scheme layout at spawn, so a post-construction install would
    leave variant memory in the wrong partitions.  A checkpoint is outside
    input: its secrets must name exactly the keyed variation positions of
    the spec's stack, once each, and each must fit its scheme, or
    :class:`LoadError` names the position.
    Queued conversations are replayed onto the new kernel's listeners in
    their original per-port order.
    """
    variations = build_variations(cp.spec)
    keyed = {
        position
        for position, variation in enumerate(variations)
        if isinstance(variation.scheme, KeyedScheme)
    }
    named: set[int] = set()
    for position, _ in cp.secrets:
        if position in named:
            raise LoadError(f"checkpoint names the secret at variation position {position} twice")
        if position not in keyed:
            raise LoadError(
                f"checkpoint names a secret at variation position {position}, but the "
                f"spec builds no keyed variation there (keyed positions: {sorted(keyed)})"
            )
        named.add(position)
    missing = sorted(keyed - named)
    if missing:
        raise LoadError(f"checkpoint holds no secret for the keyed variation at position {missing[0]}")
    app_record = get_app(cp.serving.app)
    kernel = build_standard_host()
    app_record.prepare_host(kernel)
    for entry in cp.pending:
        kernel.client_connect(entry.port, entry.data, client=entry.client)
    for position, values in cp.secrets:
        try:
            variations[position].rekey(values)
        except PartitionSchemeError as error:
            raise LoadError(
                f"checkpoint secret 'values' at variation position {position}: {error}"
            ) from None
    factory = app_record.make_factory(
        transformed=cp.spec.transformed,
        max_requests=cp.serving.max_requests,
        multiplex=cp.serving.multiplex,
    )
    session = NVariantSession(
        kernel,
        factory,
        variations,
        num_variants=cp.spec.num_variants,
        halt_on_alarm=cp.spec.halt_on_alarm,
        max_rounds=cp.spec.max_rounds,
        name=name if name is not None else cp.session_name,
        interposition=cp.spec.interposition,
    )
    session.spec = cp.spec
    session.serving = cp.serving
    return session

