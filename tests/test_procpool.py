"""The multi-process master/worker tier: pool mechanics without the attack layer.

These tests exercise :mod:`repro.engine.procpool` through
:func:`repro.engine.campaign.run_jobs` with tiny module-level preparers
(pickled to the forked workers) whose stub cells are terminal at once, so
they pin the engine-layer contract -- job validation, lifecycle,
submission-order marshalling, work stealing, halt semantics, and failure
propagation -- independently of the attack layer.  The per-job-kind
cross-backend parity tests live in ``test_job_parity.py``.
"""

import dataclasses
import functools
import math
import os
import time
from typing import Any

import pytest

from repro.engine.campaign import CampaignJob, run_jobs
from repro.engine.policy import CampaignHaltPolicy
from repro.engine.procpool import ProcessWorkerPool, WorkerError
from repro.engine.session import SessionState


# ---------------------------------------------------------------------------
# Worker-side preparers (module-level, so they pickle by reference)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Ended:
    """A session that is already terminal: the worker never steps it."""

    state: SessionState
    rounds: int
    virtual_elapsed: int
    done = True


@dataclasses.dataclass
class EchoCell:
    """Ends at once with the given state and cost; finishes with *value*."""

    value: Any = None
    cost: int = 10
    rounds: int = 1
    sleep: float = 0.0
    state: SessionState = SessionState.COMPLETED

    def start(self) -> Ended:
        if self.sleep:
            time.sleep(self.sleep)
        return Ended(self.state, self.rounds, self.cost)

    def finish(self, session: Ended) -> Any:
        return self.value


def halting(value="alarm", cost=5):
    """A cell that ends HALTED (a detected attack cell)."""
    return EchoCell(value=value, cost=cost, state=SessionState.HALTED)


def failing(value):
    """Raise inside the worker."""
    raise RuntimeError(f"boom: {value}")


def dying():
    """Kill the worker process outright (no result ever ships)."""
    os._exit(3)


def unpicklable_value():
    """A cell whose finished value cannot travel back to the master."""
    return EchoCell(value=lambda: None)


def _job(name, prepare=EchoCell, **kwargs):
    return CampaignJob(name, functools.partial(prepare, **kwargs))


def _run(jobs, workers=1, **kwargs):
    return run_jobs(jobs, backend="process", workers=workers, **kwargs)


# ---------------------------------------------------------------------------
# Validation (no processes involved)
# ---------------------------------------------------------------------------


class TestValidation:
    def test_run_jobs_validation(self):
        with pytest.raises(ValueError, match="workers"):
            _run([], workers=0)
        with pytest.raises(ValueError, match="rounds_per_turn"):
            _run([], rounds_per_turn=0)
        with pytest.raises(ValueError, match="backend must be one of virtual, process"):
            run_jobs([], backend="threads")
        with pytest.raises(ValueError):
            ProcessWorkerPool(0)

    def test_unpicklable_job_fails_at_once_naming_the_job(self):
        """A job that cannot ship is refused in the master, before any
        worker runs: not after the pool's job timeout as a wedged fleet."""
        jobs = [_job("fine"), CampaignJob("closure-cell", lambda: EchoCell())]
        pool = ProcessWorkerPool(1, job_timeout=30.0)
        began = time.monotonic()
        with pool:
            with pytest.raises(WorkerError, match="'closure-cell' cannot be shipped"):
                pool.run(jobs)
        assert time.monotonic() - began < 1.0


# ---------------------------------------------------------------------------
# Pool lifecycle and the master loop
# ---------------------------------------------------------------------------


class TestProcessWorkerPool:
    def test_run_requires_a_started_pool(self):
        pool = ProcessWorkerPool(1)
        assert not pool.started
        with pytest.raises(WorkerError, match="not started"):
            pool.run([_job("a")])

    def test_pool_is_reusable_across_runs(self):
        with ProcessWorkerPool(2) as pool:
            assert pool.started
            first = pool.run([_job("a", value=1), _job("b", value=2)])
            second = pool.run([_job("c", value=3)])
        assert not pool.started
        assert [r.value for r in first.jobs] == [1, 2]
        assert [r.value for r in second.jobs] == [3]

    def test_results_come_back_in_submission_order(self):
        """Completion order is scrambled by sleeps; report order must not be."""
        jobs = [
            _job("slow", value="slow", sleep=0.15),
            _job("fast-1", value="fast-1"),
            _job("fast-2", value="fast-2"),
            _job("fast-3", value="fast-3"),
        ]
        result = _run(jobs, workers=2)
        assert [r.value for r in result.jobs] == ["slow", "fast-1", "fast-2", "fast-3"]
        assert [r.index for r in result.jobs] == [0, 1, 2, 3]
        assert result.backend == "process"

    def test_idle_workers_steal_from_loaded_backlogs(self):
        """Round-robin sharding gives worker 0 all the slow jobs; worker 1
        drains its own queue and must steal the rest."""
        jobs = []
        for index in range(6):
            # Even indices shard to worker 0, odd to worker 1.
            sleep = 0.12 if index % 2 == 0 else 0.0
            jobs.append(_job(f"job-{index}", value=index, sleep=sleep, cost=7))
        result = _run(jobs, workers=2)
        assert result.steals > 0
        assert [r.value for r in result.jobs] == list(range(6))
        assert len(result.completed_jobs) == 6
        assert sum(result.worker_elapsed) == 6 * 7

    def test_worker_exception_propagates_with_traceback(self):
        with pytest.raises(WorkerError, match="boom: 42"):
            _run([_job("ok"), _job("bad", failing, value=42)])

    def test_unpicklable_value_fails_the_job_by_name(self):
        with pytest.raises(WorkerError, match="job 'bad' failed"):
            _run([_job("bad", unpicklable_value)])

    def test_dead_worker_is_detected_not_waited_on(self):
        with pytest.raises(WorkerError, match="died mid-campaign"):
            _run([_job("dies", dying)])

    def test_wedged_fleet_times_out(self):
        with ProcessWorkerPool(1, job_timeout=0.5) as pool:
            with pytest.raises(WorkerError, match="wedged"):
                _run([_job("slow", sleep=2.0)], pool=pool)


class TestRunJobsOnProcesses:
    def test_empty_jobs_short_circuit_without_forking(self):
        result = _run([], workers=4)
        assert result.jobs == []
        assert result.backend == "process"
        assert result.parallelism == 4
        assert math.isnan(result.speedup())

    def test_fleet_clamped_to_jobs_but_reports_requested_workers(self):
        result = _run([_job("a", cost=3), _job("b", cost=4)], workers=8)
        assert result.parallelism == 8
        assert len(result.worker_elapsed) == 8
        # Only two workers can have run anything.
        assert sum(1 for elapsed in result.worker_elapsed if elapsed) <= 2
        assert result.virtual_elapsed_sequential == 7

    def test_borrowed_pool_is_neither_started_nor_closed(self):
        with ProcessWorkerPool(2) as pool:
            result = _run([_job("a", value="a")], workers=5, pool=pool)
            assert pool.started
        assert result.jobs[0].value == "a"
        # The borrowed pool's size bounds execution; the request is recorded.
        assert result.parallelism == 5

    def test_halt_campaign_skips_queued_jobs(self):
        jobs = [_job("halts", halting), _job("never-1"), _job("never-2")]
        result = _run(jobs, halt_policy=CampaignHaltPolicy.HALT_CAMPAIGN)
        assert result.jobs[0].state is SessionState.HALTED
        assert result.jobs[0].value == "alarm"
        assert [r.skipped for r in result.jobs] == [False, True, True]
        assert all(r.value is None for r in result.skipped_jobs)

    def test_halt_campaign_truncates_in_flight_cells(self):
        """A sibling already running when the halt lands loses its value."""
        jobs = [
            _job("halts", halting),
            _job("in-flight", value="should-drop", sleep=0.3),
            _job("queued-1"),
            _job("queued-2"),
        ]
        result = _run(jobs, workers=2, halt_policy=CampaignHaltPolicy.HALT_CAMPAIGN)
        assert result.jobs[0].state is SessionState.HALTED
        truncated = result.truncated_jobs
        assert [r.name for r in truncated] == ["in-flight"]
        assert all(r.value is None for r in truncated)
        # Everything still queued when the halt landed was skipped.
        assert {r.name for r in result.skipped_jobs} == {"queued-1", "queued-2"}

    def test_per_cell_policy_ignores_halts(self):
        jobs = [_job("halts", halting), _job("runs", value="ran")]
        result = _run(jobs)
        assert result.jobs[0].state is SessionState.HALTED
        assert result.jobs[1].value == "ran"
        assert result.skipped_jobs == [] and result.truncated_jobs == []

    def test_stub_cells_match_the_virtual_backend(self):
        """Terminal-at-start cells are finished unstepped on both backends."""
        jobs = [_job("a", value="a", cost=3, rounds=2), _job("h", halting)]
        virtual = run_jobs(jobs, workers=2)
        process = _run(jobs, workers=2)
        for left, right in zip(virtual.jobs, process.jobs):
            assert (left.value, left.state, left.rounds, left.virtual_elapsed) == (
                right.value,
                right.state,
                right.rounds,
                right.virtual_elapsed,
            )
