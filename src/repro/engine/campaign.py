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

A job is a name plus a zero-argument ``prepare`` callable that returns the
job's *cell*: anything with ``start() -> session`` and
``finish(session) -> value``, such as
:class:`~repro.attacks.outcomes.PreparedAttack`.  A session that is already
terminal when ``start`` returns it is finished without being stepped.  The
scheduler calls ``prepare`` and ``start`` only when a worker slot is free
for the job, so a large cross product never holds more than ``parallelism``
simulated hosts alive at once, and ``finish`` the turn the session ends.

:func:`run_jobs` runs one job list on either backend, and is the only place
that tells them apart: ``"virtual"`` runs it on this scheduler, and
``"process"`` pickles each job's ``prepare`` to a pre-forked worker
(:mod:`repro.engine.procpool`).  A job built from a module-level preparer
and picklable arguments, such as ``functools.partial(prepare_attack,
attack, spec)``, therefore runs unchanged on both.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.engine.policy import CAMPAIGN_BACKENDS, CampaignHaltPolicy
from repro.engine.scheduler import CampaignExecutionResult, run_round_robin
from repro.engine.session import NVariantSession

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the import cycle
    from repro.engine.procpool import ProcessWorkerPool

__all__ = ["CampaignJob", "CampaignScheduler", "run_jobs"]


@dataclasses.dataclass
class CampaignJob:
    """One schedulable unit: a name plus the preparer of its cell."""

    name: str
    prepare: Callable[[], Any]


class CampaignScheduler:
    """Round-robin worker pool over lazily prepared cells.

    The scheduler never lets sessions interact -- each job's cell builds its
    own kernel -- so the per-job results are independent of ``parallelism``
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
    ):
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        if rounds_per_turn < 1:
            raise ValueError(f"rounds_per_turn must be >= 1, got {rounds_per_turn}")
        self.jobs = list(jobs)
        self.parallelism = parallelism
        self.rounds_per_turn = rounds_per_turn
        self.halt_policy = halt_policy

    def run(self) -> CampaignExecutionResult:
        """Run every job to completion (or to a campaign-wide halt)."""
        # Each cell is released the turn its session finishes.  On the corpus
        # workload that peaked lower than keeping every cell until the run
        # ends: a median of 27.56 against 27.91 MB, in 8 of 8 alternating
        # 20 s pairs.
        cells: list[Any] = []

        def sessions():
            for job in self.jobs:
                cells.append(job.prepare())
                yield cells[-1].start()

        def finish(index: int, session: NVariantSession) -> Any:
            cell, cells[index] = cells[index], None
            return cell.finish(session)

        return run_round_robin(
            [job.name for job in self.jobs],
            sessions(),
            slots=self.parallelism,
            rounds_per_turn=self.rounds_per_turn,
            halt_all=self.halt_policy is CampaignHaltPolicy.HALT_CAMPAIGN,
            finish=finish,
        )


def run_jobs(
    jobs: Sequence[CampaignJob],
    *,
    backend: str = "virtual",
    workers: int = 1,
    rounds_per_turn: int = 8,
    halt_policy: CampaignHaltPolicy = CampaignHaltPolicy.PER_CELL,
    pool: Optional["ProcessWorkerPool"] = None,
) -> CampaignExecutionResult:
    """Run *jobs* on *backend* with *workers* workers; results in job order.

    ``"virtual"`` interleaves the jobs' sessions on a
    :class:`CampaignScheduler` with ``workers`` slots.  ``"process"`` runs
    each job to the end on one of ``workers`` pre-forked OS processes, the
    fleet clamped to the job count (an idle worker is pure start-up cost);
    pass ``pool`` to reuse a started
    :class:`~repro.engine.procpool.ProcessWorkerPool` instead, which is then
    neither started nor closed here.  The result records ``workers`` as its
    ``parallelism`` either way.
    """
    if backend not in CAMPAIGN_BACKENDS:
        raise ValueError(
            f"backend must be one of {', '.join(CAMPAIGN_BACKENDS)}, got {backend!r}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if rounds_per_turn < 1:
        raise ValueError(f"rounds_per_turn must be >= 1, got {rounds_per_turn}")
    if backend == "virtual":
        return CampaignScheduler(
            jobs,
            parallelism=workers,
            rounds_per_turn=rounds_per_turn,
            halt_policy=halt_policy,
        ).run()

    from repro.engine.procpool import ProcessWorkerPool

    jobs = list(jobs)
    options = dict(
        halt_policy=halt_policy, rounds_per_turn=rounds_per_turn, parallelism_hint=workers
    )
    if pool is None:
        pool = ProcessWorkerPool(max(1, min(workers, len(jobs))))
        if jobs:
            with pool:
                return pool.run(jobs, **options)
    return pool.run(jobs, **options)
