"""Campaign scheduling: many independent sessions through a worker pool.

A *campaign* is a batch of independent jobs -- typically one attack against
one system configuration per job -- where each job owns a private simulated
host, so jobs cannot observe each other and any interleaving produces the
same per-job outcome as running the jobs back-to-back.  The scheduler
exploits exactly that: it admits up to ``parallelism`` jobs at a time
(modelling a pool of worker replicas running on parallel hardware), gives
every live session a batch of ``rounds_per_turn`` lockstep rounds per
scheduling turn round-robin, and admits the next pending job the moment a
worker slot frees up.  The loop itself is
:func:`repro.engine.scheduler.run_round_robin`, shared with the engine.

Virtual-time accounting follows the engine's parallel-hardware semantics:
jobs that occupied the same worker slot ran back-to-back on that worker, so
a slot's elapsed time is the *sum* of its jobs' tick consumption while the
campaign's elapsed time is the *max* over slots.  ``parallelism=1``
degenerates to the strictly serial campaign: one slot, jobs run to
completion in submission order, elapsed time equals the sequential sum.

Jobs are constructed lazily (``CampaignJob.start`` builds the kernel and
session when the job is admitted) so a large cross product never holds more
than ``parallelism`` simulated hosts alive at once, and finalized eagerly
(``CampaignJob.finish`` turns the finished session into the caller's result
value) the turn their session terminates.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, Optional, Sequence

from repro.engine.scheduler import run_round_robin
from repro.engine.session import NVariantSession, SessionState


class CampaignHaltPolicy(enum.Enum):
    """What one job's halt (monitor alarm) means for the rest of the campaign."""

    #: Each job applies its own halt-on-divergence policy; siblings and
    #: pending jobs are unaffected (the default -- what a campaign sweeping an
    #: attack matrix wants, since halted cells are its data points).
    PER_CELL = "per-cell"
    #: The first halted session stops the whole campaign: at the end of that
    #: turn live siblings are halted where they stand, and pending jobs are
    #: never started.
    HALT_CAMPAIGN = "halt-campaign"


@dataclasses.dataclass
class CampaignJob:
    """One schedulable unit: a lazy session plus its result finalizer."""

    name: str
    start: Callable[[], NVariantSession]
    finish: Optional[Callable[[NVariantSession], Any]] = None


@dataclasses.dataclass
class ScheduledJobResult:
    """Outcome of one campaign job after the scheduler finished.

    ``skipped`` jobs never started (the campaign halted first);
    ``truncated`` jobs were live when the campaign halted and were stopped
    mid-run, so they carry no finalized value -- treating their partial state
    as a real outcome would fabricate result cells.
    """

    name: str
    index: int
    worker: Optional[int]
    state: Optional[SessionState]
    value: Any
    rounds: int
    virtual_elapsed: int
    skipped: bool = False
    truncated: bool = False


@dataclasses.dataclass
class CampaignExecutionResult:
    """Per-job results plus the scheduler's aggregate accounting.

    The type is backend-agnostic: the cooperative virtual-time scheduler in
    this module and the multi-process tier in :mod:`repro.engine.procpool`
    both produce it, distinguished only by :attr:`backend` (and the process
    tier's :attr:`steals` counter).  ``virtual_elapsed`` stays metered in
    kernel ticks either way; wall-clock time is the caller's business.
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


class CampaignScheduler:
    """Round-robin worker pool over lazily constructed sessions.

    The scheduler never lets sessions interact -- each job's ``start`` builds
    its own kernel -- so the per-job results are independent of ``parallelism``
    and ``rounds_per_turn``; those knobs trade scheduling overhead and peak
    live state against worker-pool concurrency, nothing else.  The
    serial-parity property test pins that guarantee.
    """

    def __init__(
        self,
        jobs: Sequence[CampaignJob] = (),
        *,
        parallelism: int = 1,
        rounds_per_turn: int = 8,
        halt_policy: CampaignHaltPolicy = CampaignHaltPolicy.PER_CELL,
        max_turns: int = 10_000_000,
    ):
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        if rounds_per_turn < 1:
            raise ValueError(f"rounds_per_turn must be >= 1, got {rounds_per_turn}")
        self.jobs = list(jobs)
        self.parallelism = parallelism
        self.rounds_per_turn = rounds_per_turn
        self.halt_policy = halt_policy
        self.max_turns = max_turns

    def run(self) -> CampaignExecutionResult:
        """Run every job to completion (or to a campaign-wide halt)."""
        jobs = self.jobs
        results: list[Optional[ScheduledJobResult]] = [None] * len(jobs)
        worker_elapsed = [0] * self.parallelism

        def finish(index: int, session: NVariantSession, worker: int, truncated: bool) -> None:
            job = jobs[index]
            # A truncated session was stopped by the campaign-wide halt, not
            # by its own run: finalizing it would fabricate an outcome (e.g.
            # an attack reported "no effect" because it never got to land).
            value = None
            if not truncated and job.finish is not None:
                value = job.finish(session)
            results[index] = ScheduledJobResult(
                name=job.name,
                index=index,
                worker=worker,
                state=session.state,
                value=value,
                rounds=session.rounds,
                virtual_elapsed=session.virtual_elapsed,
                truncated=truncated,
            )
            worker_elapsed[worker] += session.virtual_elapsed

        loop = run_round_robin(
            (job.start() for job in jobs),
            slots=self.parallelism,
            rounds_per_turn=self.rounds_per_turn,
            halt_all=self.halt_policy is CampaignHaltPolicy.HALT_CAMPAIGN,
            max_turns=self.max_turns,
            finish=finish,
        )
        return CampaignExecutionResult(
            jobs=[
                result
                if result is not None
                else ScheduledJobResult(
                    name=job.name,
                    index=index,
                    worker=None,
                    state=None,
                    value=None,
                    rounds=0,
                    virtual_elapsed=0,
                    skipped=True,
                )
                for index, (job, result) in enumerate(zip(jobs, results))
            ],
            scheduler_turns=loop.turns,
            parallelism=self.parallelism,
            rounds_per_turn=self.rounds_per_turn,
            worker_elapsed=worker_elapsed,
            max_wait_turns=loop.max_wait_turns,
            max_live_sessions=loop.max_live,
        )


def run_jobs(
    jobs: Sequence[CampaignJob],
    *,
    parallelism: int = 1,
    rounds_per_turn: int = 8,
    halt_policy: CampaignHaltPolicy = CampaignHaltPolicy.PER_CELL,
) -> CampaignExecutionResult:
    """Build a scheduler over *jobs* and run it to completion in one call."""
    scheduler = CampaignScheduler(
        jobs,
        parallelism=parallelism,
        rounds_per_turn=rounds_per_turn,
        halt_policy=halt_policy,
    )
    return scheduler.run()
