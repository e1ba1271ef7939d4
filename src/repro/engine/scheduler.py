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
fleet-wide halt rule from it, applied at the end of a turn.

Aggregate throughput is measured in virtual time: each session accounts the
kernel clock ticks it consumed, and since sessions model independent replicas
running on parallel hardware, the engine's elapsed virtual time is the *max*
over sessions rather than the sum -- which is exactly where the concurrent
engine beats the sequential driver.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Iterable, Iterator

from repro.engine.session import NVariantSession, SessionState

# Bound once: attribute access on an Enum class goes through the metaclass's
# ``__getattr__`` hook, several times slower than a module global, and the
# scheduling loop compares against these after every step.
_RUNNING = SessionState.RUNNING
_HALTED = SessionState.HALTED


class HaltPolicy(enum.Enum):
    """What an alarm in one session means for its siblings."""

    #: Halt only the alarming session; the others keep serving (default).
    PER_SESSION = "per-session"
    #: Halt every session in the engine at the end of the first turn in
    #: which any session halted.
    HALT_ALL = "halt-all"


@dataclasses.dataclass
class ScheduledSessionResult:
    """Outcome of one session after the engine finished."""

    name: str
    state: SessionState
    result: "NVariantResult"
    rounds: int
    virtual_elapsed: int

    @property
    def alarms(self) -> int:
        """Number of alarms this session's monitor raised."""
        return len(self.result.alarms)


@dataclasses.dataclass
class EngineResult:
    """All sessions' outcomes plus aggregate accounting."""

    sessions: list[ScheduledSessionResult]
    scheduler_turns: int

    @property
    def total_alarms(self) -> int:
        """Alarms raised across every session."""
        return sum(s.alarms for s in self.sessions)

    @property
    def completed_sessions(self) -> list[ScheduledSessionResult]:
        """Sessions that finished without being halted."""
        return [s for s in self.sessions if s.state is SessionState.COMPLETED]

    @property
    def halted_sessions(self) -> list[ScheduledSessionResult]:
        """Sessions the monitor stopped."""
        return [s for s in self.sessions if s.state is SessionState.HALTED]

    @property
    def virtual_elapsed(self) -> int:
        """Engine-level elapsed virtual time: max over concurrent sessions."""
        return max((s.virtual_elapsed for s in self.sessions), default=0)

    @property
    def virtual_elapsed_sequential(self) -> int:
        """What the same work would cost run back-to-back on one replica."""
        return sum(s.virtual_elapsed for s in self.sessions)

    def session(self, name: str) -> ScheduledSessionResult:
        """Look one session's outcome up by name."""
        for entry in self.sessions:
            if entry.name == name:
                return entry
        raise KeyError(f"no session named {name!r}")

    def describe(self) -> str:
        """Readable multi-line summary."""
        lines = [
            f"sessions: {len(self.sessions)} "
            f"(completed {len(self.completed_sessions)}, halted {len(self.halted_sessions)})",
            f"alarms: {self.total_alarms}",
            f"virtual elapsed: {self.virtual_elapsed} ticks concurrent, "
            f"{self.virtual_elapsed_sequential} sequential",
        ]
        for entry in self.sessions:
            lines.append(
                f"  {entry.name}: {entry.state.value} rounds={entry.rounds} "
                f"elapsed={entry.virtual_elapsed} alarms={entry.alarms}"
            )
        return "\n".join(lines)


@dataclasses.dataclass
class RoundRobinRun:
    """What :func:`run_round_robin` measured beyond the sessions' own state."""

    #: Scheduling turns taken; each turn gives every live session one batch.
    turns: int
    #: The most consecutive turns any live session waited without a batch.
    #: Round-robin keeps this at zero; a regression that skips sessions
    #: shows up here.
    max_wait_turns: int
    #: Peak number of simultaneously live sessions (<= the slot count).
    max_live: int


@dataclasses.dataclass(slots=True)
class _Live:
    """One admitted, still-running session."""

    index: int
    session: NVariantSession
    #: ``session.step``, bound once for the round loop.
    step: Callable[[], SessionState]
    slot: int
    last_turn: int


def _ignore(index: int, session: NVariantSession, slot: int, truncated: bool) -> None:
    pass


def run_round_robin(
    sessions: Iterator[NVariantSession],
    *,
    slots: int,
    rounds_per_turn: int,
    halt_all: bool,
    max_turns: int,
    finish: Callable[[int, NVariantSession, int, bool], None] = _ignore,
) -> RoundRobinRun:
    """Step *sessions* round-robin until every one has ended.

    This is the one scheduling loop: the engine and the campaign scheduler
    both run on it.  Sessions are drawn from the iterator lazily, one per
    free slot, so at most *slots* are live at once and a campaign builds a
    job's host only when a worker slot is free for it.  Each turn gives every
    live session a batch of up to *rounds_per_turn* lockstep rounds, in
    admission order.  A session that is already terminal when drawn is
    finished at once and never stepped.

    ``finish(index, session, slot, truncated)`` is called once per session
    as it ends -- *index* counts draws from zero -- in the order sessions
    ended within the turn, and its slot is free for the next draw.

    Under *halt_all* the fleet-wide halt rule applies at the end of a turn:
    if any session halted during the turn, every session still running is
    halted where it stands and finished as truncated, and nothing more is
    drawn.  Every live session therefore gets its batch in the turn the halt
    lands, whatever its place in the turn order.
    """
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
                finish(drawn, session, slot, False)
                free.append(slot)
            drawn += 1
        if not live:
            break
        if len(live) > max_live:
            max_live = len(live)
        previous = turns
        turns += 1
        if turns > max_turns:
            raise RuntimeError(f"scheduler exceeded {max_turns} scheduling turns")
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
            finish(entry.index, entry.session, entry.slot, False)
            free.append(entry.slot)
            halted = halted or entry.session.state is _HALTED
        if halted and halt_all:
            for entry in live:
                entry.session.halt()
                finish(entry.index, entry.session, entry.slot, True)
            live = []
            drawing = False
    return RoundRobinRun(turns=turns, max_wait_turns=max_wait, max_live=max_live)


class MultiSessionEngine:
    """Round-robin cooperative scheduler over N-variant sessions."""

    def __init__(
        self,
        sessions: Iterable[NVariantSession] = (),
        *,
        halt_policy: HaltPolicy = HaltPolicy.PER_SESSION,
        max_turns: int = 10_000_000,
        name: str = "engine",
    ):
        self.name = name
        self.halt_policy = halt_policy
        self.max_turns = max_turns
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

    def run(self) -> EngineResult:
        """Interleave every session, one lockstep round per turn, to the end."""
        sessions = self._sessions
        loop = run_round_robin(
            iter(sessions),
            slots=len(sessions),
            rounds_per_turn=1,
            halt_all=self.halt_policy is HaltPolicy.HALT_ALL,
            max_turns=self.max_turns,
        )
        return EngineResult(
            sessions=[
                ScheduledSessionResult(
                    name=session.name,
                    state=session.state,
                    result=session.result(),
                    rounds=session.rounds,
                    virtual_elapsed=session.virtual_elapsed,
                )
                for session in sessions
            ],
            scheduler_turns=loop.turns,
        )


def run_sessions(
    sessions: Iterable[NVariantSession],
    *,
    halt_policy: HaltPolicy = HaltPolicy.PER_SESSION,
    name: str = "engine",
) -> EngineResult:
    """Build an engine over *sessions* and run it to completion in one call."""
    engine = MultiSessionEngine(sessions, halt_policy=halt_policy, name=name)
    return engine.run()
