"""Multi-process campaign execution: a master and N pre-forked workers.

Every execution tier below this one is *simulated* concurrency: the
cooperative :class:`~repro.engine.scheduler.MultiSessionEngine` and the
:class:`~repro.engine.campaign.CampaignScheduler` interleave sessions inside
one Python interpreter and account progress in virtual kernel ticks.  This
module is the first layer where parallelism is physical.  Following the
nginx-style master/worker pattern (a persistent master process, N workers
forked once, no per-job process creation), a :class:`ProcessWorkerPool`
keeps ``num_workers`` OS processes alive and a master loop shards campaign
jobs across them, so independent attack cells burn real CPU (and overlap
real blocking time) on real cores.

Live sessions hold kernels, generators and monitors -- none of that can
cross a process boundary -- so what ships to a worker is never a session
but the job's ``prepare`` callable, pickled: a module-level preparer plus
picklable arguments (``functools.partial(prepare_attack, attack, spec)``).
The master pickles every job before any worker runs, so a job that cannot
ship fails at once, by name.  The worker calls ``prepare``, starts the cell,
steps its session to the end and ships back the session's state, rounds and
``virtual_elapsed`` with ``finish(session)``.  The cell is built the same
way the virtual backend builds it in process, which is why the two backends
produce byte-identical outcomes.

Scheduling follows the virtual scheduler's shape so the result type can stay
backend-agnostic: jobs are sharded round-robin into per-worker run queues,
the master admits one job at a time to each free worker, and a worker whose
own queue runs dry *steals* the tail of the longest remaining queue
(``CampaignExecutionResult.steals`` counts these).  Results are marshalled
back over a shared queue and re-ordered by submission index, so callers see
the same submission-order ``ScheduledJobResult`` list the virtual scheduler
produces -- with ``virtual_elapsed`` still metered in kernel ticks by the
worker-side session, and wall time left to the caller's clock.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import time
import traceback
from collections import deque
from typing import Any, Optional, Sequence

from repro.engine.campaign import CampaignJob
from repro.engine.policy import CampaignHaltPolicy
from repro.engine.scheduler import CampaignExecutionResult, ScheduledJobResult
from repro.engine.session import SessionState


class WorkerError(RuntimeError):
    """A worker process failed, died, or timed out mid-campaign."""


def _worker_main(worker_id: int, inbox, results) -> None:
    """One worker's loop: pull a job, run its cell, ship the result; None stops us.

    Failures -- including a value that does not pickle -- are caught and
    marshalled back as ``"error"`` results (with the formatted traceback) so
    one bad cell fails the campaign with a diagnosis instead of a hung
    master.
    """
    while True:
        item = inbox.get()
        if item is None:
            return
        index, name, prepare = item
        try:
            cell = pickle.loads(prepare)()
            session = cell.start()
            while not session.done:
                session.step()
            value = cell.finish(session)
            outcome = (session.state, session.rounds, session.virtual_elapsed, value)
            results.put((worker_id, index, "ok", pickle.dumps(outcome)))
        except Exception:
            results.put(
                (worker_id, index, "error", {"job": name, "traceback": traceback.format_exc()})
            )


def _pickled_prepare(job: CampaignJob) -> bytes:
    """*job*'s preparer as the bytes a worker unpickles, or a WorkerError naming it."""
    try:
        return pickle.dumps(job.prepare)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise WorkerError(
            f"job {job.name!r} cannot be shipped to a worker process: its prepare "
            f"does not pickle ({exc}); build it from a module-level preparer and "
            "picklable arguments"
        ) from exc


def _default_context() -> multiprocessing.context.BaseContext:
    """Fork where the platform offers it (cheap warm workers), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ProcessWorkerPool:
    """A persistent master over N pre-forked worker processes.

    The pool is the long-lived tier: workers are created once (``start`` /
    context-manager entry) and reused across any number of :meth:`run`
    calls, so a campaign driver pays process creation once per fleet, not
    once per job.  ``job_timeout`` bounds how long the master waits for any
    single result before declaring the fleet wedged; a worker dying mid-job
    is detected and reported rather than waited on forever.
    """

    def __init__(
        self,
        num_workers: int = 1,
        *,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
        job_timeout: float = 300.0,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.job_timeout = job_timeout
        self._context = mp_context if mp_context is not None else _default_context()
        self._processes: list[multiprocessing.process.BaseProcess] = []
        self._inboxes: list[Any] = []
        self._results: Optional[Any] = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def started(self) -> bool:
        """True while the worker fleet is alive."""
        return bool(self._processes)

    def start(self) -> "ProcessWorkerPool":
        """Fork the worker fleet (idempotent)."""
        if self.started:
            return self
        self._results = self._context.Queue()
        for worker_id in range(self.num_workers):
            inbox = self._context.Queue()
            process = self._context.Process(
                target=_worker_main,
                args=(worker_id, inbox, self._results),
                name=f"campaign-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            self._inboxes.append(inbox)
            self._processes.append(process)
        return self

    def close(self) -> None:
        """Stop every worker: sentinel first, terminate stragglers."""
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue already torn down
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive teardown
                process.terminate()
                process.join(timeout=5.0)
        self._processes = []
        self._inboxes = []
        self._results = None

    def __enter__(self) -> "ProcessWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the master loop -------------------------------------------------------

    def _next_result(self):
        """Block for the next worker result, watching for dead workers."""
        deadline = time.monotonic() + self.job_timeout
        while True:
            try:
                return self._results.get(timeout=0.2)
            except queue.Empty:
                for process in self._processes:
                    if not process.is_alive():
                        raise WorkerError(
                            f"worker {process.name} died mid-campaign "
                            f"(exitcode {process.exitcode})"
                        ) from None
                if time.monotonic() >= deadline:
                    raise WorkerError(
                        f"no worker result within {self.job_timeout}s; "
                        "campaign declared wedged"
                    ) from None

    def run(
        self,
        jobs: Sequence[CampaignJob],
        *,
        halt_policy: CampaignHaltPolicy = CampaignHaltPolicy.PER_CELL,
        rounds_per_turn: int = 1,
        parallelism_hint: Optional[int] = None,
    ) -> CampaignExecutionResult:
        """Run *jobs* across the worker fleet; results in submission order.

        ``parallelism_hint`` is what the result records as its worker count
        (defaults to the pool size) -- :func:`~repro.engine.campaign.run_jobs`
        uses it so a pool clamped below the requested worker count still
        reports the caller's request,
        exactly like the virtual scheduler reports its configured
        ``parallelism`` even when jobs are fewer.  ``rounds_per_turn`` is
        recorded for result-shape parity but does not batch anything here:
        each worker runs its cell to completion in one go.

        Halt semantics under ``HALT_CAMPAIGN``: the first HALTED result stops
        admission (queued jobs are ``skipped``), and cells already in flight
        on other workers cannot be interrupted mid-run, so their results are
        marked ``truncated`` and their values dropped -- the process-tier
        analogue of the virtual scheduler halting live stragglers: neither
        backend ever reports an outcome for a cell the halt reached first.

        Every job is pickled before any is submitted: one that does not
        pickle raises :class:`WorkerError` naming it, and no worker runs.
        No jobs need no started pool.
        """
        jobs = list(jobs)
        prepares = [_pickled_prepare(job) for job in jobs]
        recorded_parallelism = (
            parallelism_hint if parallelism_hint is not None else self.num_workers
        )
        worker_elapsed = [0] * max(recorded_parallelism, self.num_workers)
        if not jobs:
            return CampaignExecutionResult(
                jobs=[],
                scheduler_turns=0,
                parallelism=recorded_parallelism,
                rounds_per_turn=rounds_per_turn,
                worker_elapsed=worker_elapsed,
                max_wait_turns=0,
                max_live_sessions=0,
                backend="process",
            )
        if not self.started:
            raise WorkerError("pool is not started; use `with ProcessWorkerPool(...) as pool`")

        results: list[Optional[ScheduledJobResult]] = [None] * len(jobs)
        backlog = [deque() for _ in range(self.num_workers)]
        for index in range(len(jobs)):
            backlog[index % self.num_workers].append(index)
        in_flight: list[Optional[int]] = [None] * self.num_workers
        truncated: set[int] = set()
        campaign_halted = False
        steals = 0
        turns = 0
        max_live = 0

        def admit(worker: int) -> bool:
            """Give *worker* its next job: own queue first, then steal."""
            nonlocal steals
            source = worker
            if not backlog[worker]:
                source = max(range(self.num_workers), key=lambda w: len(backlog[w]))
                if not backlog[source]:
                    return False
                steals += 1
            index = backlog[source].popleft() if source == worker else backlog[source].pop()
            self._inboxes[worker].put((index, jobs[index].name, prepares[index]))
            in_flight[worker] = index
            return True

        while True:
            if not campaign_halted:
                for worker in range(self.num_workers):
                    if in_flight[worker] is None:
                        admit(worker)
            live = sum(1 for index in in_flight if index is not None)
            max_live = max(max_live, live)
            if live == 0:
                break
            turns += 1
            worker, index, status, outcome = self._next_result()
            in_flight[worker] = None
            if status == "error":
                raise WorkerError(
                    f"job {outcome['job']!r} failed on worker {worker}:\n"
                    f"{outcome['traceback']}"
                )
            state, rounds, virtual_elapsed, value = pickle.loads(outcome)
            was_truncated = index in truncated
            results[index] = ScheduledJobResult(
                name=jobs[index].name,
                index=index,
                worker=worker,
                state=state,
                value=None if was_truncated else value,
                rounds=rounds,
                virtual_elapsed=virtual_elapsed,
                truncated=was_truncated,
            )
            worker_elapsed[worker] += virtual_elapsed
            if (
                state is SessionState.HALTED
                and halt_policy is CampaignHaltPolicy.HALT_CAMPAIGN
                and not campaign_halted
                and not was_truncated
            ):
                campaign_halted = True
                # In-flight siblings cannot be stopped mid-cell from here;
                # their eventual results are demoted to truncated (no value).
                truncated.update(i for i in in_flight if i is not None)
                for run_queue in backlog:
                    run_queue.clear()

        return CampaignExecutionResult(
            jobs=[
                result if result is not None else ScheduledJobResult(job.name, index, skipped=True)
                for index, (job, result) in enumerate(zip(jobs, results))
            ],
            scheduler_turns=turns,
            parallelism=recorded_parallelism,
            rounds_per_turn=rounds_per_turn,
            worker_elapsed=worker_elapsed,
            max_wait_turns=0,
            max_live_sessions=max_live,
            backend="process",
            steals=steals,
        )
