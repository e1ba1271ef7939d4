"""Benchmark: real wall-clock campaign speedup on the process tier.

Every other benchmark in this harness measures *virtual* time -- the engine's
tick accounting, deterministic on any machine.  This one measures the wall
clock: the multi-process master/worker tier (``backend="process"``) runs the
same campaign cells on pre-forked OS workers, so elapsed real time should
drop as workers are added.

Two workload families are timed, because they scale with different host
resources:

* ``service`` rows attach a real per-cell blocking wait
  (:func:`prepare_service_cell`, the network/disk service time the
  in-process simulation elides).  Worker
  processes overlap blocking waits regardless of core count, so the >= 2x
  acceptance bar at 4 workers holds even on a single-core CI host.
* ``compute`` rows run the pure-simulation cells.  Their speedup needs real
  cores, so the bar is asserted only when the host offers >= 4 of them; the
  measured figure is recorded either way.

Timing protocol: one warmup run per (family, workers) point on a freshly
forked fleet, then the minimum of ``REPEATS`` timed runs through the same
warm pool (``time.perf_counter``).  Parity is load-bearing as always: every
timed configuration must produce outcomes identical to the virtual-serial
reference -- wall-clock wins may never come from changing what a cell
computes.

All wall-clock-derived result keys are prefixed ``wall_`` so the trajectory
diff (``benchmarks/bench_diff.py``) can exclude them from flip gating: they
are host noise, not reproduction state.  ``BENCH_PROCPOOL_SMOKE=1`` shrinks
the matrix and skips both the timing assertions and the results file -- the
mode ``make bench-smoke`` / ``make bench-procpool-smoke`` use to exercise the
assertions without timing a shared CI box.
"""

import dataclasses
import functools
import json
import os
import time

from conftest import emit, write_results

from repro.api.campaign import prepare_attack, run_campaign, standard_attacks
from repro.api.spec import (
    SINGLE_PROCESS_SPEC,
    STANDARD_SYSTEM_SPECS,
    UID_DIVERSITY_SPEC,
    UID_ORBIT_3_SPEC,
)
from repro.attacks.uid_attacks import standard_uid_attacks
from repro.engine.campaign import CampaignJob
from repro.engine.procpool import ProcessWorkerPool

SMOKE = os.environ.get("BENCH_PROCPOOL_SMOKE") == "1"

#: Worker counts swept (the acceptance bar compares the ends).
WORKERS = (1, 2) if SMOKE else (1, 2, 4)

#: Timed repetitions per point (minimum taken); one warmup precedes them.
REPEATS = 1 if SMOKE else 3

#: Real blocking wait per service-family cell, in milliseconds.
SERVICE_DELAY_MS = 5 if SMOKE else 40

#: The service family: few cells, dominated by the blocking wait.
SERVICE_SPECS = (SINGLE_PROCESS_SPEC, UID_DIVERSITY_SPEC, UID_ORBIT_3_SPEC)
SERVICE_ATTACK_NAMES = ("full-word-root-overwrite", "partial-1-byte-overwrite")

#: The compute family: the full standard campaign (pure simulation cells).
COMPUTE_SPECS = (
    (SINGLE_PROCESS_SPEC, UID_DIVERSITY_SPEC)
    if SMOKE
    else (*STANDARD_SYSTEM_SPECS, UID_ORBIT_3_SPEC)
)


def _service_attacks():
    return [a for a in standard_uid_attacks() if a.name in SERVICE_ATTACK_NAMES]


def prepare_service_cell(attack, spec, delay_ms):
    """An attack cell whose ``finish`` adds a real *delay_ms* blocking wait.

    The wait never changes the cell's outcome or its virtual-time
    accounting; it lets the benchmark measure the worker fleet's
    blocking-overlap win independently of how many cores the host has.
    """
    cell = prepare_attack(attack, spec)

    def finish(session):
        value = cell.finish(session)
        time.sleep(delay_ms / 1000.0)
        return value

    return dataclasses.replace(cell, finish=finish)


def _jobs(specs, attacks, prepare=prepare_attack, *args):
    """One process-tier job per attack x spec cell, attacks outer."""
    return [
        CampaignJob(f"{attack.name}@{spec.name}", functools.partial(prepare, attack, spec, *args))
        for attack in attacks
        for spec in specs
    ]


def _outcome_bytes(values):
    """Byte-level rendering of a result's outcome values (order-sensitive)."""
    return json.dumps(
        [dataclasses.asdict(v) | {"kind": v.kind.value} for v in values]
    ).encode()


def _families():
    """(name, jobs, parity-reference outcomes) per workload family."""
    service_specs = SERVICE_SPECS[:2] if SMOKE else SERVICE_SPECS
    families = {
        "service": (
            _jobs(service_specs, _service_attacks(), prepare_service_cell, SERVICE_DELAY_MS),
            run_campaign(service_specs, _service_attacks()).outcomes,
        ),
        "compute": (
            _jobs(COMPUTE_SPECS, standard_attacks()),
            run_campaign(COMPUTE_SPECS).outcomes,
        ),
    }
    return families


def _time_point(jobs, workers):
    """Fork a fleet of *workers*, warm it up, return (best wall, last result)."""
    with ProcessWorkerPool(workers) as pool:
        pool.run(jobs)  # warmup: page in modules, settle queue plumbing
        best = float("inf")
        result = None
        for _ in range(REPEATS):
            started = time.perf_counter()
            result = pool.run(jobs)
            best = min(best, time.perf_counter() - started)
    return best, result


def run_matrix():
    """Time every (family, workers) point; verify parity at each one."""
    rows = []
    for family, (jobs, reference) in _families().items():
        baseline = None
        for workers in WORKERS:
            wall, result = _time_point(jobs, workers)
            completed = [job.value for job in result.jobs]
            assert _outcome_bytes(completed) == _outcome_bytes(reference), (
                family,
                workers,
            )
            if workers == 1:
                baseline = wall
            rows.append(
                {
                    "family": family,
                    "workers": workers,
                    "cells": len(jobs),
                    "virtual_elapsed_sequential": result.virtual_elapsed_sequential,
                    # Steal counts depend on which worker drained first, i.e.
                    # on wall timing -- host noise like the timings themselves.
                    "wall_steals": result.steals,
                    "wall_seconds": round(wall, 4),
                    "wall_speedup": round(baseline / wall, 3) if wall else None,
                }
            )
    return rows


def format_rows(rows) -> str:
    lines = [
        f"{'family':>8} {'workers':>8} {'cells':>6} {'wall s':>9} {'speedup':>8} "
        f"{'steals':>7}"
    ]
    for row in rows:
        lines.append(
            f"{row['family']:>8} {row['workers']:>8} {row['cells']:>6} "
            f"{row['wall_seconds']:>9.4f} {row['wall_speedup']:>8.2f} "
            f"{row['wall_steals']:>7}"
        )
    return "\n".join(lines)


def _speedup(rows, family, workers) -> float:
    (row,) = [r for r in rows if r["family"] == family and r["workers"] == workers]
    return row["wall_speedup"]


def test_procpool_wall_clock_scaling(benchmark):
    """4 process workers cut real campaign wall time >= 2x on blocking cells.

    The service family's speedup comes from overlapping real per-cell waits,
    so it holds on any host; the compute family's needs physical cores and
    is asserted only when the host has >= 4.  Parity is asserted inside the
    matrix at every point, smoke or not.
    """
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    host_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    emit(
        f"Process-tier wall clock vs. worker count (host cpus: {host_cpus})",
        format_rows(rows),
    )
    if SMOKE:
        return  # matrix + parity exercised; timing a shared box proves nothing

    max_workers = WORKERS[-1]
    service_speedup = _speedup(rows, "service", max_workers)
    assert service_speedup >= 2.0, rows
    compute_speedup = _speedup(rows, "compute", max_workers)
    if host_cpus >= max_workers:
        assert compute_speedup >= 2.0, rows

    write_results(
        "procpool",
        {
            "config": {
                "workers": list(WORKERS),
                "repeats": REPEATS,
                "service_delay_ms": SERVICE_DELAY_MS,
                "service_cells": len(_families()["service"][0]),
                "compute_cells": len(_families()["compute"][0]),
            },
            "rows": rows,
            "wall_host_cpus": host_cpus,
            "wall_service_speedup_at_max_workers": service_speedup,
            "wall_compute_speedup_at_max_workers": compute_speedup,
        },
    )
