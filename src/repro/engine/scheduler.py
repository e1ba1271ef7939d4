"""Cooperative scheduling of many N-variant sessions.

The engine is deliberately simple -- the sessions are generator-driven and
deterministic, so "concurrency" means interleaving lockstep rounds
round-robin: every scheduling turn gives each live session exactly one round.
That fixed rotation keeps multi-session runs reproducible (the property the
whole reproduction leans on) while modelling M independent N-variant servers
making progress in parallel; the interleaving-determinism test suite asserts
that a session's alarms and HTTP responses are identical whether it runs
alone or interleaved with any number of siblings.

:func:`run_round_robin` is the one stepping loop.  :class:`MultiSessionEngine`
runs it with a slot per session and one round per turn;
:class:`~repro.engine.campaign.CampaignScheduler` runs it with a bounded pool
of worker slots and ``rounds_per_turn`` rounds per turn.  Both get the same
fleet-wide halt rule from it, applied at the end of a turn, and the same
result type, :class:`CampaignExecutionResult`.

Aggregate throughput is measured in virtual time: each session accounts the
kernel clock ticks it consumed, and since sessions model independent replicas
running on parallel hardware, the engine's elapsed virtual time is the *max*
over sessions rather than the sum -- which is exactly where the concurrent
engine beats the sequential driver.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.core.nvariant import NVariantResult
from repro.engine.policy import HaltPolicy
from repro.engine.session import NVariantSession, SessionState

# Bound once: attribute access on an Enum class goes through the metaclass's
# ``__getattr__`` hook, several times slower than a module global, and the
# scheduling loop compares against these after every step.
_RUNNING = SessionState.RUNNING
_HALTED = SessionState.HALTED

#: The most scheduling turns one :func:`run_round_robin` call may take: a
#: guard against a session that never ends, far above any real run.
MAX_TURNS = 10_000_000


@dataclasses.dataclass
class ScheduledJobResult:
    """Outcome of one scheduled session (a campaign job or an engine session).

    ``skipped`` jobs never started (a fleet-wide halt came first);
    ``truncated`` jobs were live when the fleet-wide halt landed and were
    stopped mid-run, so they carry no finalized value -- treating their
    partial state as a real outcome would fabricate result cells.
    """

    name: str
    index: int
    worker: Optional[int] = None
    state: Optional[SessionState] = None
    value: Any = None
    rounds: int = 0
    virtual_elapsed: int = 0
    skipped: bool = False
    truncated: bool = False


@dataclasses.dataclass
class CampaignExecutionResult:
    """Per-job results plus the scheduler's aggregate accounting.

    Every way of running sessions returns this one type: the engine (one job
    per session, whose ``value`` is the session's ``NVariantResult``), the
    campaign scheduler, and the process tier in :mod:`repro.engine.procpool`
    (distinguished only by :attr:`backend` and its :attr:`steals` counter).
    ``virtual_elapsed`` stays metered in kernel ticks either way; wall-clock
    time is the caller's business.
    """

    jobs: list[ScheduledJobResult]
    scheduler_turns: int
    parallelism: int
    rounds_per_turn: int
    worker_elapsed: list[int]
    #: Fairness telemetry: the most consecutive scheduling turns any live
    #: session spent waiting without receiving a round.  Round-robin keeps
    #: this at zero; a scheduler regression that skips sessions shows up here.
    max_wait_turns: int
    #: Peak number of simultaneously live sessions (<= parallelism).
    max_live_sessions: int
    #: Which execution tier produced this result ("virtual" or "process").
    backend: str = "virtual"
    #: Process tier only: jobs a worker took from another slot's run queue.
    steals: int = 0

    def values(self) -> list[Any]:
        """Every job's finalized value, in submission order."""
        return [job.value for job in self.jobs]

    def job(self, name: str) -> ScheduledJobResult:
        """Look one job's result up by name."""
        for entry in self.jobs:
            if entry.name == name:
                return entry
        raise KeyError(f"no job named {name!r}")

    @property
    def completed_jobs(self) -> list[ScheduledJobResult]:
        """Jobs whose session ran to its own terminal state."""
        return [job for job in self.jobs if not job.skipped and not job.truncated]

    @property
    def skipped_jobs(self) -> list[ScheduledJobResult]:
        """Jobs never started because the campaign halted first."""
        return [job for job in self.jobs if job.skipped]

    @property
    def truncated_jobs(self) -> list[ScheduledJobResult]:
        """Jobs stopped mid-run by a campaign-wide halt (no finalized value)."""
        return [job for job in self.jobs if job.truncated]

    @property
    def virtual_elapsed(self) -> int:
        """Campaign elapsed virtual time: max over concurrent worker slots."""
        return max(self.worker_elapsed, default=0)

    @property
    def virtual_elapsed_sequential(self) -> int:
        """What the same jobs would cost run back-to-back on one worker."""
        return sum(job.virtual_elapsed for job in self.jobs)

    def speedup(self) -> float:
        """Sequential over concurrent elapsed time (the worker-pool win).

        An empty campaign has no measurement to form a ratio from, so the
        result is ``nan`` -- never ``0.0``, which would read as "measured,
        and infinitely slow".
        """
        if not self.virtual_elapsed:
            return float("nan")
        return self.virtual_elapsed_sequential / self.virtual_elapsed

    def describe(self) -> str:
        """Readable multi-line summary."""
        lines = [
            f"jobs: {len(self.jobs)} (completed {len(self.completed_jobs)}, "
            f"truncated {len(self.truncated_jobs)}, skipped {len(self.skipped_jobs)}) "
            f"on {self.parallelism} workers",
            f"virtual elapsed: {self.virtual_elapsed} ticks concurrent, "
            f"{self.virtual_elapsed_sequential} sequential "
            f"({self.speedup():.2f}x)",
        ]
        return "\n".join(lines)


@dataclasses.dataclass(slots=True)
class _Live:
    """One admitted, still-running session."""

    index: int
    session: NVariantSession
    #: ``session.step``, bound once for the round loop.
    step: Callable[[], SessionState]
    slot: int
    last_turn: int


def run_round_robin(
    names: Sequence[str],
    sessions: Iterator[NVariantSession],
    *,
    slots: int,
    rounds_per_turn: int,
    halt_all: bool,
    finish: Callable[[int, NVariantSession], Any],
) -> CampaignExecutionResult:
    """Step *sessions* round-robin until every one has ended.

    This is the one scheduling loop: the engine and the campaign scheduler
    both run on it.  Sessions are drawn from the iterator lazily, one per
    free slot, so at most *slots* are live at once and a campaign builds a
    job's host only when a worker slot is free for it.  Each turn gives every
    live session a batch of up to *rounds_per_turn* lockstep rounds, in
    admission order.  A session that is already terminal when drawn is
    finished at once and never stepped.

    The *index*-th session drawn is the job ``names[index]``; as it ends,
    ``finish(index, session)`` turns it into the job's value, and its slot is
    free for the next draw.  A slot's elapsed time is the sum of its jobs'
    tick consumption: jobs that shared a slot ran back-to-back on it.

    Under *halt_all* the fleet-wide halt rule applies at the end of a turn:
    if any session halted during the turn, every session still running is
    halted where it stands and recorded as truncated, with no value, and
    nothing more is drawn: the jobs left are skipped.  Every live session
    therefore gets its batch in the turn the halt lands, whatever its place
    in the turn order.
    """
    results: list[Optional[ScheduledJobResult]] = [None] * len(names)
    worker_elapsed = [0] * slots

    def record(index: int, session: NVariantSession, slot: int, truncated: bool) -> None:
        # A truncated session was stopped by the fleet-wide halt, not by its
        # own run: finalizing it would fabricate an outcome (e.g. an attack
        # reported "no effect" because it never got to land).
        results[index] = ScheduledJobResult(
            name=names[index],
            index=index,
            worker=slot,
            state=session.state,
            value=None if truncated else finish(index, session),
            rounds=session.rounds,
            virtual_elapsed=session.virtual_elapsed,
            truncated=truncated,
        )
        worker_elapsed[slot] += session.virtual_elapsed

    free = list(range(slots - 1, -1, -1))  # pop() -> the lowest free slot
    live: list[_Live] = []
    drawn = turns = max_wait = max_live = 0
    drawing = True
    batch = range(rounds_per_turn)
    while True:
        while drawing and free:
            session = next(sessions, None)
            if session is None:
                drawing = False
                break
            slot = free.pop()
            if session.state is _RUNNING:
                live.append(_Live(drawn, session, session.step, slot, turns))
            else:
                record(drawn, session, slot, False)
                free.append(slot)
            drawn += 1
        if not live:
            break
        if len(live) > max_live:
            max_live = len(live)
        previous = turns
        turns += 1
        if turns > MAX_TURNS:
            raise RuntimeError(f"scheduler exceeded {MAX_TURNS} scheduling turns")
        ended: list[_Live] = []
        for entry in live:
            if entry.last_turn != previous:
                max_wait = max(max_wait, previous - entry.last_turn)
            entry.last_turn = turns
            step = entry.step
            for _ in batch:
                # ``step`` returns the session's state: the first terminal
                # one ends the session's batch and the session.
                if step() is not _RUNNING:
                    ended.append(entry)
                    break
        if not ended:
            continue
        live = [entry for entry in live if entry.session.state is _RUNNING]
        halted = False
        for entry in ended:
            record(entry.index, entry.session, entry.slot, False)
            free.append(entry.slot)
            halted = halted or entry.session.state is _HALTED
        if halted and halt_all:
            for entry in live:
                entry.session.halt()
                record(entry.index, entry.session, entry.slot, True)
            live = []
            drawing = False
    return CampaignExecutionResult(
        jobs=[
            result if result is not None else ScheduledJobResult(name, index, skipped=True)
            for index, (name, result) in enumerate(zip(names, results))
        ],
        scheduler_turns=turns,
        parallelism=slots,
        rounds_per_turn=rounds_per_turn,
        worker_elapsed=worker_elapsed,
        max_wait_turns=max_wait,
        max_live_sessions=max_live,
    )


class MultiSessionEngine:
    """Round-robin cooperative scheduler over N-variant sessions."""

    def __init__(
        self,
        sessions: Iterable[NVariantSession] = (),
        *,
        halt_policy: HaltPolicy = HaltPolicy.PER_SESSION,
        name: str = "engine",
    ):
        self.name = name
        self.halt_policy = halt_policy
        self._sessions: list[NVariantSession] = []
        for session in sessions:
            self.add_session(session)

    def add_session(self, session: NVariantSession) -> NVariantSession:
        """Register a session; names must be unique within the engine."""
        if any(existing.name == session.name for existing in self._sessions):
            raise ValueError(f"duplicate session name {session.name!r}")
        self._sessions.append(session)
        return session

    @property
    def sessions(self) -> list[NVariantSession]:
        """The registered sessions, in scheduling order."""
        return list(self._sessions)

    def run(self) -> CampaignExecutionResult:
        """Interleave every session, one lockstep round per turn, to the end.

        Each session is one job of the result, named after the session; its
        ``value`` is the session's :class:`~repro.core.nvariant.NVariantResult`,
        or ``None`` when ``HALT_ALL`` truncated the session mid-run.
        """
        sessions = self._sessions
        return run_round_robin(
            [session.name for session in sessions],
            iter(sessions),
            slots=len(sessions),
            rounds_per_turn=1,
            halt_all=self.halt_policy is HaltPolicy.HALT_ALL,
            finish=_session_result,
        )


def _session_result(index: int, session: NVariantSession) -> NVariantResult:
    return session.result()


def run_sessions(
    sessions: Iterable[NVariantSession],
    *,
    halt_policy: HaltPolicy = HaltPolicy.PER_SESSION,
    name: str = "engine",
) -> CampaignExecutionResult:
    """Build an engine over *sessions* and run it to completion in one call."""
    engine = MultiSessionEngine(sessions, halt_policy=halt_policy, name=name)
    return engine.run()
