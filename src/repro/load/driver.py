"""The open-loop load driver: arrivals x admission x a serving session.

This is where the three load primitives meet the serving apps.  An arrival
process emits request ticks on a *global* virtual timeline; the driver
delivers each due arrival to the admission policy and, when admitted,
queues its wire bytes onto the session's kernel.  The server's ``accept``
blocks in virtual time: as the ``on_empty`` hook of the app's client
listener, the driver advances the kernel clock to the next arrival and
delivers it.  ``accept`` is a run-once call (the monitor performs it once
per round for every variant), so blocking it cannot break lockstep.  When
the arrivals run out, ``accept`` fails and the server exits.

A session thus ends only at a monitor halt, at a migration, or after the
last arrival.  A halt aborts the request in service; if work remains, the
driver restarts the session *without* rotating keys.  Alarms, rounds and
service ticks are accumulated across sessions; sojourn times are measured
on the global timeline, so idle waits and migrations never corrupt latency.

With ``migrate_after=k`` the driver checkpoints at the first quiescent
point after *k* completions -- an idle accept, which declines to wait so
the server exits cleanly, or a halt -- and restores onto a brand-new
kernel.  After an idle hand-off nothing is delivered until the restored
server's first accept, which re-bases the global timeline to the hand-off
tick, so the standby's start-up runs off the clock.  A migrated run must
serve byte-identical responses with the same latencies and detection
outcomes as an unmigrated one; the ``loadtest`` experiment asserts that.

:class:`LoadtestCell` runs one load test as a campaign cell, so a sweep of
them is one job list for either campaign backend; with a seed, both
backends reproduce the same result dict byte for byte because every random
draw flows through :func:`repro.api.seeding.derive_seed`.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, ClassVar, Mapping, Optional, Sequence

from repro.api.seeding import derive_seed, seeded_spec, sha256
from repro.api.spec import SystemSpec
from repro.apps.catalog import ServingApp, get_app
from repro.engine.session import SessionState
from repro.kernel.network import ListeningSocket
from repro.load.admission import AdmissionPolicy, create_admission_policy
from repro.load.arrivals import LoadError, create_arrival_process
from repro.load.checkpoint import (
    build_serving_session,
    checkpoint,
    keyed_secrets,
    restore,
)
from repro.load.latency import LatencyHistogram

#: Root seed default, shared with the corpus/entropy experiments.
DEFAULT_SEED = 20080625

#: Attack kinds the open-loop driver can append to a benign arrival stream.
ATTACK_KINDS = ("uid-overwrite", "pointer-overwrite")

#: Address planted by the pointer-overwrite attack: valid in at most one
#: variant's partition under any address scheme, so dereference diverges.
_POINTER_TARGET = 0x1000

_RUNNING = SessionState.RUNNING
_NEVER = float("inf")


@dataclasses.dataclass
class RequestRecord:
    """One arrival's life: offered -> admitted/shed -> completed/aborted."""

    index: int
    arrival: int
    payload: bytes
    kind: str = "benign"
    attack: Optional[str] = None
    admitted: bool = False
    shed: bool = False
    evicted: bool = False
    aborted: bool = False
    completed_at: Optional[int] = None
    response: bytes = b""
    connections: tuple = ()

    @property
    def completed(self) -> bool:
        return self.completed_at is not None


@dataclasses.dataclass
class LoadRunResult:
    """Everything one open-loop run measured, JSON-round-trippable."""

    spec_name: str
    app: str
    arrival: str
    admission: str
    rate: float
    requests: int
    offered: int
    admitted: int
    shed: int
    evicted: int
    aborted: int
    completed: int
    queue_high_water: int
    latency: LatencyHistogram
    alarms: int
    #: Server runs: the first, plus one per restart after a halt and one
    #: per migration.
    bursts: int
    rounds: int
    virtual_elapsed: int
    end_tick: int
    migrated: bool
    attack_outcomes: tuple[dict[str, Any], ...] = ()
    response_digest: str = ""
    secret_digest: str = ""
    #: A finished run, seen as a session by the campaign scheduler (see
    #: :class:`LoadtestCell`): terminal, so it is never stepped.
    state: ClassVar[SessionState] = SessionState.COMPLETED
    done: ClassVar[bool] = True

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON-ready payload (the backend-parity unit)."""
        return {
            "admission": self.admission,
            "admitted": self.admitted,
            "alarms": self.alarms,
            "app": self.app,
            "arrival": self.arrival,
            "attack_outcomes": [dict(sorted(o.items())) for o in self.attack_outcomes],
            "bursts": self.bursts,
            "completed": self.completed,
            "end_tick": self.end_tick,
            "evicted": self.evicted,
            "aborted": self.aborted,
            "latency": self.latency.to_dict(),
            "migrated": self.migrated,
            "offered": self.offered,
            "queue_high_water": self.queue_high_water,
            "rate": round(self.rate, 6),
            "requests": self.requests,
            "response_digest": self.response_digest,
            "rounds": self.rounds,
            "secret_digest": self.secret_digest,
            "shed": self.shed,
            "spec": self.spec_name,
            "virtual_elapsed": self.virtual_elapsed,
        }


def _attack_payload(app: ServingApp, kind: str) -> bytes:
    if kind == "uid-overwrite":
        return app.uid_overwrite()
    if kind == "pointer-overwrite":
        return app.pointer_overwrite(_POINTER_TARGET)
    raise LoadError(
        f"unknown attack kind {kind!r}; known kinds: {', '.join(ATTACK_KINDS)}"
    )


def _build_records(
    app: ServingApp,
    arrival: str,
    rate: float,
    requests: int,
    rng: random.Random,
    arrival_params: Mapping[str, Any],
    attacks: Sequence[str],
) -> list[RequestRecord]:
    process = create_arrival_process(arrival, rate, rng=rng, **dict(arrival_params))
    ticks = process.schedule(requests)
    records = []
    for index, tick in enumerate(ticks):
        # Alternate the two benign paths so consecutive requests exercise
        # distinct server-side work, like the webbench mix does.
        payload = (
            app.benign_payload()
            if index % 2 == 0
            else app.benign_payload(path=app.alternate_path)
        )
        records.append(RequestRecord(index=index, arrival=tick, payload=payload))
    # Attacks trail the benign stream, one mean gap apart, so benign latency
    # statistics are never polluted by halted sessions.
    gap = max(1, int(round(process.mean_gap)))
    last = ticks[-1] if ticks else 0
    for offset, kind in enumerate(attacks):
        records.append(
            RequestRecord(
                index=len(records),
                arrival=last + (offset + 1) * gap,
                payload=_attack_payload(app, kind),
                kind="attack",
                attack=kind,
            )
        )
    return records


class _OpenLoopRun:
    """Mutable state of one driver run (kept off the public API)."""

    def __init__(
        self,
        spec: SystemSpec,
        app: ServingApp,
        policy: AdmissionPolicy,
        records: list[RequestRecord],
        *,
        migrate_after: Optional[int],
        name: str,
    ):
        self.app = app
        self.policy = policy
        self.records = records
        self.migrate_after = migrate_after
        self.name = name

        self.session = build_serving_session(spec, app, name=name)
        #: Every listener whose ``accept`` this run blocks; :meth:`run`
        #: detaches the hook when it ends, so the run, its sessions and their
        #: kernels form no cycle and free by reference counting.
        self._hooked: list[ListeningSocket] = []
        self._block_accept()
        self.base = 0  # global tick = base + kernel.clock (survives migration)
        #: The global tick of an idle hand-off, until the restored server's
        #: first accept re-bases the timeline to it.
        self.handoff: Optional[int] = None
        self.delivered = 0
        #: The global tick of the next undelivered arrival (infinity once
        #: every arrival is delivered): no delivery is due before it.
        self.next_arrival = records[0].arrival if records else _NEVER
        self.pending: list[RequestRecord] = []
        self.latency = LatencyHistogram()
        self.bursts = 1
        self.rounds = 0
        self.ticks = 0
        self.idle = 0  # ticks the server spent blocked in accept
        self.alarms = 0
        self.completed = 0
        self.migrated = False

    # -- timeline ---------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.base + self.session.kernel.clock

    def _block_accept(self) -> None:
        """Make ``accept`` on the app's client port wait for the next arrival."""
        listener = self.session.kernel.network.listener(self.app.port)
        listener.on_empty = self._await_arrival
        self._hooked.append(listener)

    def _await_arrival(self, listener: ListeningSocket) -> None:
        """The blocking half of ``accept``: wait until a connection is queued.

        Queues nothing, so the server exits, once the arrivals run out or
        when a migration is due (an idle accept is a quiescent point).
        """
        if self.handoff is not None:
            # The restored server's first accept: its start-up ran off the clock.
            self.base = self.handoff - self.session.kernel.clock
            self.handoff = None
        if self._migration_due() and not self._resolved():
            self.handoff = self.now
            return
        while not listener.pending and self.delivered < len(self.records):
            self.idle += self._advance_to_next_arrival()

    def _advance_to_next_arrival(self) -> int:
        """Move the clock to the next arrival and deliver it; return the ticks skipped."""
        gap = max(0, self.records[self.delivered].arrival - self.now)
        self.session.kernel.clock += gap
        self._deliver_due()
        return gap

    def _connect(self, record: RequestRecord) -> None:
        kernel = self.session.kernel
        before = len(kernel.network.connections)
        self.app.connect(kernel, record.payload, client=f"c{record.index}")
        record.connections = tuple(kernel.network.connections[before:])

    def _deliver_due(self) -> None:
        if self.handoff is not None:
            return  # nothing arrives until the restored server first accepts
        while self.delivered < len(self.records):
            record = self.records[self.delivered]
            if record.arrival > self.now:
                self.next_arrival = record.arrival
                break
            self.delivered += 1
            self.next_arrival = _NEVER
            decision = self.policy.offer(record.arrival)
            if not decision.admitted:
                record.shed = True
                continue
            record.admitted = True
            if decision.evict_oldest:
                self._evict_oldest(record)
                if not record.admitted:
                    continue
            self._connect(record)
            self.pending.append(record)

    def _evict_oldest(self, incoming: RequestRecord) -> None:
        """Head-drop: evict the oldest not-yet-accepted queued request.

        With every queued entry already in service (nothing left to unwind),
        the freshly admitted arrival itself is the victim -- drop-oldest
        degenerates to drop-newest at that point.
        """
        for record in self.pending:
            if self._queued(record):
                self._scrub_connections(record)
                self.pending.remove(record)
                record.evicted = True
                record.shed = True
                self.policy.released()
                return
        incoming.evicted = True
        incoming.shed = True
        self.policy.released()
        # The incoming record never enters pending; flag it so _deliver_due's
        # caller skips the connect.
        incoming.admitted = False

    def _queued(self, record: RequestRecord) -> bool:
        """True while any of a record's connections waits in an accept queue."""
        return any(
            connection in listener.pending
            for listener in self.session.kernel.network.listeners.values()
            for connection in record.connections
        )

    def _scrub_connections(self, record: RequestRecord) -> None:
        """Remove a record's queued connections from every accept queue."""
        for listener in self.session.kernel.network.listeners.values():
            for connection in record.connections:
                try:
                    listener.pending.remove(connection)
                except ValueError:
                    pass

    def _harvest_completions(self) -> None:
        for record in list(self.pending):
            primary = record.connections[0]
            if primary.closed_by_server and primary.outbound:
                record.completed_at = self.now
                record.response = primary.response_bytes()
                self.pending.remove(record)
                self.policy.released()
                self.completed += 1
                self.latency.add(record.completed_at - record.arrival)

    # -- session boundaries -----------------------------------------------------

    def _migration_due(self) -> bool:
        return (
            self.migrate_after is not None
            and not self.migrated
            and self.completed >= self.migrate_after
        )

    def _resolved(self) -> bool:
        return self.delivered >= len(self.records) and not self.pending

    def _abort_in_service(self) -> None:
        """Mark the request a halted session was serving as aborted."""
        victim = self._in_service_record()
        self._scrub_connections(victim)
        self.pending.remove(victim)
        victim.aborted = True
        self.policy.released()

    def _in_service_record(self) -> RequestRecord:
        """The request the halted session was serving: oldest accepted, else oldest."""
        for record in self.pending:
            if not self._queued(record):
                return record
        return self.pending[0]

    def _migrate(self) -> None:
        """Hand the session off to a fresh kernel via checkpoint/restore."""
        # Requests queued behind a halt move as fresh connections, so each
        # record keeps handles on the kernel that now serves it.
        survivors = list(self.pending)
        for record in survivors:
            self._scrub_connections(record)
        cp = checkpoint(self.session)
        self.base = self.now
        self.session = restore(cp, name=f"{self.name}-migrated")
        self._block_accept()
        for record in survivors:
            self._connect(record)
        self.migrated = True

    # -- the loop ---------------------------------------------------------------

    def run(self) -> None:
        try:
            self._serve()
        finally:
            for listener in self._hooked:
                listener.on_empty = None
            self._hooked.clear()

    def _serve(self) -> None:
        while True:
            self._run_burst()
            self.rounds += self.session.rounds
            self.ticks += self.session.virtual_elapsed
            self.alarms += len(self.session.monitor.alarms)
            halted = self.session.state is SessionState.HALTED
            if halted and self.pending:
                self._abort_in_service()
            elif halted:
                # Nothing was in service, so it may have halted at start-up;
                # restarted now, it would halt again before it waits in accept.
                while not self.pending and self.delivered < len(self.records):
                    self._advance_to_next_arrival()
            # A server that exits cleanly has seen the last arrival, unless
            # it declined one for an idle hand-off.
            if self._resolved() or not (halted or self.handoff is not None):
                return
            if self._migration_due():
                self._migrate()
            else:
                # A halted server never closed its listen sockets; demote them
                # to placeholders (queue and hook intact) so the restart rebinds.
                for listener in self.session.kernel.network.listeners.values():
                    listener.bound = False
                self.session.restart(rotate_keys=False)
            self.bursts += 1

    def _run_burst(self) -> None:
        """Step the session until it ends, delivering and harvesting only when due.

        Arrivals are delivered once the clock reaches the next one, and
        completions are looked for only after a round in which the server
        shut a connection down (the first round of a burst always looks).
        The locals die with this frame, so a session a migration replaces
        is not kept alive by them.
        """
        session = self.session
        kernel = session.kernel
        network = kernel.network
        step = session.step
        closes = -1
        state = session.state
        while True:
            if self.base + kernel.clock >= self.next_arrival:
                self._deliver_due()
            if state is not _RUNNING:
                return
            state = step()
            if network.server_closes != closes:
                closes = network.server_closes
                self._harvest_completions()


def run_loadtest(
    spec: SystemSpec,
    *,
    app: str = "httpd",
    arrival: str = "poisson",
    rate: float = 8.0,
    requests: int = 32,
    admission: str = "accept-all",
    admission_params: Optional[Mapping[str, Any]] = None,
    arrival_params: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = DEFAULT_SEED,
    attacks: Sequence[str] = (),
    migrate_after: Optional[int] = None,
    name: str = "loadtest",
) -> LoadRunResult:
    """Drive one open-loop load cell to resolution and measure it.

    Every arrival is offered to the admission policy at its scheduled global
    tick; admitted requests are served by one session whose ``accept`` waits
    for them, restarted only after a halt.  The run resolves when each
    request is completed, shed, or aborted by a monitor halt.  With a *seed*, the whole run --
    arrival schedule, keyed-scheme draws, and therefore every byte of every
    response -- is deterministic and backend-independent.
    """
    if requests < 0:
        raise LoadError(f"requests must be >= 0, got {requests}")
    app_record = get_app(app)
    spec = seeded_spec(spec, seed)
    if seed is not None:
        rng = random.Random(derive_seed(seed, "loadtest", spec.name, app, arrival))
    else:
        rng = random.Random()
    policy = create_admission_policy(admission, **dict(admission_params or {}))
    records = _build_records(
        app_record, arrival, rate, requests, rng, arrival_params or {}, attacks
    )
    run = _OpenLoopRun(
        spec,
        app_record,
        policy,
        records,
        migrate_after=migrate_after,
        name=name,
    )
    run.run()

    digest = sha256()
    for record in records:
        if record.completed:
            digest.update(f"{record.index}:".encode())
            digest.update(record.response)
    secret = sha256(repr(keyed_secrets(run.session)).encode()).hexdigest()
    stats = policy.stats
    return LoadRunResult(
        spec_name=spec.name,
        app=app_record.name,
        arrival=arrival,
        admission=admission,
        rate=rate,
        requests=requests,
        offered=stats.offered,
        admitted=stats.admitted,
        shed=stats.shed,
        evicted=sum(1 for r in records if r.evicted),
        aborted=sum(1 for r in records if r.aborted),
        completed=run.completed,
        queue_high_water=stats.queue_high_water,
        latency=run.latency,
        alarms=run.alarms,
        bursts=run.bursts,
        rounds=run.rounds,
        virtual_elapsed=run.ticks - run.idle,
        end_tick=run.now,
        migrated=run.migrated,
        attack_outcomes=tuple(
            {
                "attack": r.attack,
                "halted": r.aborted,
                "completed": r.completed,
                "shed": r.shed,
            }
            for r in records
            if r.kind == "attack"
        ),
        response_digest=digest.hexdigest(),
        secret_digest=secret,
    )


@dataclasses.dataclass(frozen=True)
class LoadtestCell:
    """One open-loop run as a campaign cell.

    ``start`` runs :func:`run_loadtest` with *kwargs* to the end, so the
    "session" it returns -- the :class:`LoadRunResult` -- is already
    terminal and the campaign scheduler finishes it without stepping it.
    ``finish`` renders it with :meth:`LoadRunResult.to_dict`, which is what
    the ``loadtest`` experiment's backend-parity claim compares byte for
    byte.  ``functools.partial(LoadtestCell, kwargs)`` is the job's preparer
    on either backend.
    """

    kwargs: Mapping[str, Any]

    def start(self) -> LoadRunResult:
        return run_loadtest(**self.kwargs)

    def finish(self, result: LoadRunResult) -> dict[str, Any]:
        return result.to_dict()
