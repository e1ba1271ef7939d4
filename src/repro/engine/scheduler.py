"""Cooperative scheduling of many N-variant sessions.

The engine is deliberately simple -- the sessions are generator-driven and
deterministic, so "concurrency" means interleaving lockstep rounds
round-robin: every scheduling turn gives each live session exactly one round.
That fixed rotation keeps multi-session runs reproducible (the property the
whole reproduction leans on) while modelling M independent N-variant servers
making progress in parallel; the interleaving-determinism test suite asserts
that a session's alarms and HTTP responses are identical whether it runs
alone or interleaved with any number of siblings.

Aggregate throughput is measured in virtual time: each session accounts the
kernel clock ticks it consumed, and since sessions model independent replicas
running on parallel hardware, the engine's elapsed virtual time is the *max*
over sessions rather than the sum -- which is exactly where the concurrent
engine beats the sequential driver.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, Optional

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
    #: Halt every session in the engine at the first alarm anywhere.
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


class MultiSessionEngine:
    """Round-robin cooperative scheduler over N-variant sessions."""

    def __init__(
        self,
        sessions: Iterable[NVariantSession] = (),
        *,
        halt_policy: HaltPolicy = HaltPolicy.PER_SESSION,
        max_turns: int = 10_000_000,
        name: str = "engine",
        intake: Optional[object] = None,
    ):
        self.name = name
        self.halt_policy = halt_policy
        self.max_turns = max_turns
        #: Optional admission policy guarding :meth:`offer` (any object with
        #: the repro.load.admission protocol: ``offer(now)`` returning a
        #: decision with ``admitted``, plus ``released()``).  Typed loosely --
        #: the engine must stay importable without the load subsystem.
        self.intake = intake
        self._intake_admitted: set[str] = set()
        self._sessions: list[NVariantSession] = []
        for session in sessions:
            self.add_session(session)

    def add_session(self, session: NVariantSession) -> NVariantSession:
        """Register a session; names must be unique within the engine."""
        if any(existing.name == session.name for existing in self._sessions):
            raise ValueError(f"duplicate session name {session.name!r}")
        self._sessions.append(session)
        return session

    def offer(self, session: NVariantSession) -> bool:
        """Admission-controlled intake: add *session* unless the policy sheds it.

        Without an intake policy this is :meth:`add_session` returning True.
        With one, the policy sees the engine's current occupancy as its clock
        (engine intake is load-ordered, not time-ordered) and may shed the
        offer; an accepted session is released back to the policy when it
        reaches a terminal state during :meth:`run`.  A drop-oldest decision
        evicts the oldest admitted session that has not started a round yet
        (an in-flight session cannot be unwound); with none available the
        offer is still honoured.
        """
        if self.intake is None:
            self.add_session(session)
            return True
        decision = self.intake.offer(len(self._sessions))
        if not decision.admitted:
            return False
        if getattr(decision, "evict_oldest", False):
            for existing in self._sessions:
                if (
                    existing.name in self._intake_admitted
                    and existing.rounds == 0
                    and not existing.done
                ):
                    self._sessions.remove(existing)
                    self._intake_admitted.discard(existing.name)
                    self.intake.released()
                    break
        self.add_session(session)
        self._intake_admitted.add(session.name)
        return True

    @property
    def sessions(self) -> list[NVariantSession]:
        """The registered sessions, in scheduling order."""
        return list(self._sessions)

    def run(self) -> EngineResult:
        """Interleave every session, one lockstep round per turn, to the end."""
        if not self._sessions:
            return EngineResult(sessions=[], scheduler_turns=0)
        turns = 0
        halt_all = self.halt_policy is HaltPolicy.HALT_ALL
        admitted = self._intake_admitted
        active = [s for s in self._sessions if s.state is _RUNNING]
        while active:
            turns += 1
            if turns > self.max_turns:
                raise RuntimeError(f"engine exceeded {self.max_turns} scheduling turns")
            # ``step`` returns the session's state, so a turn in which every
            # session stays running needs no second pass over them.
            ended = False
            for session in active:
                state = session.step()
                if state is not _RUNNING:
                    ended = True
                    if state is _HALTED and halt_all:
                        self.halt_all()
            if not ended:
                continue
            if admitted:
                for session in active:
                    if session.state is not _RUNNING and session.name in admitted:
                        admitted.discard(session.name)
                        self.intake.released()
            active = [s for s in active if s.state is _RUNNING]
        return self._build_result(turns)

    def halt_all(self) -> None:
        """Stop every still-running session (the fleet-wide halt policy)."""
        for session in self._sessions:
            if not session.done:
                session.halt()

    def _build_result(self, turns: int) -> EngineResult:
        return EngineResult(
            sessions=[
                ScheduledSessionResult(
                    name=session.name,
                    state=session.state,
                    result=session.result(),
                    rounds=session.rounds,
                    virtual_elapsed=session.virtual_elapsed,
                )
                for session in self._sessions
            ],
            scheduler_turns=turns,
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
