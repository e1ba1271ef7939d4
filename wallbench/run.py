"""Wall-clock benchmark of the N-variant simulator: one workload per call.

    python3 wallbench/run.py --workload fleet-httpd --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times passes of the workload for ``--seconds``
without span wrappers and reports the end-to-end metrics, scaled to a
reference host speed (see ``reference.py``).
With ``--trace 1`` it times a fixed number of passes untraced, installs the
span wrappers, repeats the same passes traced, and reports the per-layer
metrics; the spans are written to ``wallbench/out/``.  Every pass's outputs
are checked; the last line of standard output is the result as JSON, and a
failed check makes the exit code 1.  The repository root is found from this
file's location, so the working directory does not matter.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "wallbench" / "out"

WORKLOAD_NAMES = ("fleet-httpd", "corpus-grade", "openloop-ftpd")
DEFAULT_SEED = 20080625

#: Fresh interpreters started per run to time set-up; like pass times, set-up
#: time is taken at its 10th percentile, the end that noise does not reach.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
READY = "ready"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_paths() -> None:
    """Make ``repro`` (from ``src/``) and this package importable."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def set_up(name: str, seed: int):
    """Everything before the timed part: imports, inputs, a warm-up pass."""
    _import_paths()
    from wallbench.workloads import build

    workload = build(name, seed)
    # Objects alive now belong to set-up; keep the collector from rescanning
    # them on every full collection inside the timed passes.
    gc.collect()
    gc.freeze()
    return workload


def time_setup(name: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter until its set-up is done."""
    samples = []
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        began = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            try:
                line = child.stdout.readline().strip()
                samples.append(time.perf_counter() - began)
                child.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if line != READY or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode}, said {line!r})")
    return samples


def fingerprint() -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def for_seconds(seconds: float):
    """Pass indices 0, 1, 2, ... until *seconds* of wall time have gone by."""
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        yield index
        index += 1


def run_passes(workload, indices, check=True, after=None):
    """Run the passes *indices* names, calling *after* between them.

    With *check*, each pass is checked right after it ran and its outputs
    are dropped, so they do not pile up in memory.
    """
    results = []
    for index in indices:
        result = workload.run_pass(index)
        if check:
            workload.check(result)
            result.outputs = None
        results.append(result)
        if after is not None:
            after()
    return results


def throughput(results) -> float:
    from wallbench.stats import fast_throughput

    return fast_throughput((r.input_set, r.work, r.seconds) for r in results)


def _tally(results) -> tuple[int, int, list[str]]:
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    reasons = [reason for r in results for reason in r.reasons]
    return attempted, failed, reasons


def measure(workload, seconds: float, setup_samples: list[float]):
    """The end-to-end metrics, plus report-only figures without a bound.

    Throughput and set-up time are scaled to the reference host's speed by
    the reference loop, which runs after every pass; the wall-clock figures
    are reported next to them.
    """
    from wallbench.reference import host_slowdown, reference_loop
    from wallbench.stats import FAST_PERCENT, median, percentile, tail_percentile

    loop_seconds: list[float] = []
    results = run_passes(
        workload, for_seconds(seconds), after=lambda: loop_seconds.append(reference_loop())
    )
    slowdown = host_slowdown(loop_seconds)
    wall_throughput = throughput(results)
    wall_setup = percentile(setup_samples, FAST_PERCENT)
    metrics = {
        "setup_s": wall_setup / slowdown,
        "throughput_per_s": wall_throughput * slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "passes": len(results),
        "input_sets": len({r.input_set for r in results}),
        "pass_time_percentile": FAST_PERCENT,
        "setup_s": len(setup_samples),
        "reference_loops": len(loop_seconds),
    }
    details = {
        f"{workload.unit}_per_s": (wall_throughput, "1/s"),
        "setup_wall_s": (wall_setup, "s"),
        "host_slowdown": (slowdown, "ratio"),
    }
    fastest = {}
    for result in results:
        if result.input_set not in fastest or result.seconds < fastest[result.input_set].seconds:
            fastest[result.input_set] = result
    cells = [ms for result in fastest.values() for ms in result.cell_ms]
    if cells:
        # Cell times from the least disturbed pass of each input set.
        details["cell_ms_p50"] = (median(cells), "ms")
        details["cell_ms_p95"] = (percentile(cells, 95.0), "ms")
        samples["cell_ms"] = len(cells)
        samples["cell_ms_tail_percentile"] = tail_percentile(len(cells))
    return results, metrics, END_TO_END_UNITS, samples, details


def measure_traced(workload, seed: int):
    from wallbench.tracing import LAYER_UNITS, Tracer, layer_metrics

    indices = range(workload.traced_passes)
    plain = run_passes(workload, indices)
    tracer = Tracer()
    tracer.install()
    try:
        workload.prepare_inputs()
        traced = run_passes(workload, indices, check=False)
    finally:
        tracer.uninstall()
    for result in traced:
        workload.check(result)
    metrics, samples, table = layer_metrics(
        tracer,
        passes=len(traced),
        windows=[r.window_ns for r in traced],
        traced_throughput=throughput(traced),
        untraced_throughput=throughput(plain),
        cell_starts_ns=[start for r in traced for start in r.cell_starts_ns],
        bursts=sum(r.bursts for r in traced),
        completed=sum(r.completed for r in traced),
    )
    spans_path = OUT_DIR / f"spans-{workload.name}.json.gz"
    tracer.write(spans_path, workload=workload.name, seed=seed, passes=len(traced))
    samples["spans_file"] = str(spans_path.relative_to(ROOT))
    print(f"{'span':<22}{'calls/pass':>12}{'us/pass':>14}{'self us/pass':>14}")
    for name, calls, total, own in table:
        print(f"{name:<22}{calls:>12.1f}{total:>14.1f}{own:>14.1f}")
    return plain + traced, metrics, LAYER_UNITS, samples, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        set_up(args.workload, args.seed)
        print(READY, flush=True)
        return 0

    _import_paths()
    setup_samples = [] if args.trace else time_setup(args.workload, args.seed)
    workload = set_up(args.workload, args.seed)
    if args.trace:
        results, metrics, units, samples, details = measure_traced(workload, args.seed)
    else:
        results, metrics, units, samples, details = measure(
            workload, args.seconds, setup_samples
        )
    attempted, failed, reasons = _tally(results)
    correct = failed == 0 and attempted > 0
    details["failed_frac"] = (failed / max(attempted, 1), "ratio")

    rows = [(name, value, units[name]) for name, value in metrics.items()]
    rows += [(name, value, unit) for name, (value, unit) in details.items()]
    for name, value, unit in rows:
        print(f"{workload.name:<15}{name:<36}{value:>14.4f} {unit}")
    for reason in sorted(set(reasons))[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(
        json.dumps(
            {
                "provenance": {
                    "workload": workload.name,
                    "why": workload.why,
                    "work_unit": workload.unit,
                    "input": workload.describe(),
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "host": fingerprint(),
                },
                "samples": samples,
                "report_only": {name: value for name, (value, _) in details.items()},
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
