#!/usr/bin/env python3
"""Cross-PR benchmark trajectory diffing: results/ vs the committed baseline.

Every benchmark run writes a machine-readable ``BENCH_<name>.json`` into
``benchmarks/results/`` (see :func:`conftest.write_results`);
``benchmarks/baseline/`` holds the committed snapshot those files are judged
against.  This tool pairs the two directories up and prints, per benchmark,
every *numeric* metric whose value moved -- absolute delta and percent --
plus non-numeric changes, new metrics and metrics that disappeared, so a
PR's performance story is a ``make bench && make bench-diff`` away instead
of living in terminal scrollback.

Exit status: 0 when every benchmark was compared (whether or not anything
changed), 2 when a directory is missing or holds no benchmark files.
Non-numeric metrics that change (a claim boolean regressing from true to
false, a matrix cell changing outcome), vanish, or are *born false* (a new
claim that fails from its first run) are listed under ``!`` markers;
``--fail-on-flip`` turns any such flip into exit status 1 for CI use.
``--fail-on-move`` does the same for numeric metrics: exit status 1 when
any of them moves beyond ``--rtol`` or disappears.  Together with
``--rtol 0`` they make the gate exact, which is how ``make check-bench``
holds the virtual-tick trajectory byte for byte.

Diffing is generic over the JSON payloads, so list elements are keyed by
position: inserting a matrix row or column mid-table shifts the cells
after it and reports them all as changed.  That is accurate (the payload
did change shape) but noisy; the workflow for an intentional shape change
is to refresh ``benchmarks/baseline/`` in the same commit, after which the
diff is clean again and only real regressions move.

Two noise controls keep the trajectory about the reproduction rather than
the host that happened to run it: metrics whose final dotted-path component
starts with ``wall_`` (wall-clock timings, host core counts, their derived
speedups) are excluded from the diff entirely, and ``--rtol`` suppresses
numeric deltas whose relative change is within the given tolerance.

Usage::

    python benchmarks/bench_diff.py
    python benchmarks/bench_diff.py --baseline benchmarks/baseline --results benchmarks/results
    python benchmarks/bench_diff.py --fail-on-flip --rtol 0.05
    python benchmarks/bench_diff.py --fail-on-flip --fail-on-move --rtol 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent

#: Default locations, relative to benchmarks/.
DEFAULT_RESULTS = HERE / "results"
DEFAULT_BASELINE = HERE / "baseline"

def flatten(payload: Any, prefix: str = "") -> Iterator[tuple[str, Any]]:
    """Yield ``(dotted.path, scalar)`` pairs for every leaf of *payload*.

    Lists use numeric path components; only scalars (numbers, bools,
    strings, None) terminate a path, so the diff vocabulary is stable
    however deeply a benchmark nests its payload.
    """
    if isinstance(payload, dict):
        for key in sorted(payload):
            yield from flatten(payload[key], f"{prefix}{key}.")
    elif isinstance(payload, list):
        for index, item in enumerate(payload):
            yield from flatten(item, f"{prefix}{index}.")
    else:
        yield prefix.rstrip("."), payload


def load_metrics(path: Path) -> dict[str, Any]:
    """One benchmark file as a flat ``{dotted.path: scalar}`` mapping."""
    return dict(flatten(json.loads(path.read_text())))


def is_number(value: Any) -> bool:
    """True for real numerics (bools are category flips, not deltas)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_wall_clock(metric: str) -> bool:
    """True for host-noise metrics excluded from the tracked trajectory.

    By convention benchmarks prefix every wall-clock-derived key with
    ``wall_`` (``wall_seconds``, ``wall_speedup``, ``wall_host_cpus``);
    their values depend on the machine and its load, so diffing them across
    PRs reports weather, not regressions.
    """
    leaf = metric.rsplit(".", 1)[-1]
    return leaf.startswith("wall_")


def is_claim(metric: str) -> bool:
    """True for the schema-stable claim booleans of an experiment report.

    Only these are judged at birth: other False leaves (e.g. a system
    spec's ``transformed: false`` inside a config section) are ordinary
    data, not failed guarantees.
    """
    return metric == "ok" or metric.startswith("claims.") or ".claims." in metric


def diff_benchmark(
    baseline: dict[str, Any], current: dict[str, Any], *, rtol: float = 0.0
) -> tuple[list[str], int, int]:
    """Render one benchmark's changed metrics; returns (lines, flips, moves).

    ``moves`` counts the numeric metrics that moved beyond *rtol* or
    disappeared.

    *rtol* suppresses numeric deltas whose relative change (against the
    baseline value; absolute change when the baseline is zero) stays within
    the tolerance -- measurement jitter, not trajectory.
    """
    lines: list[str] = []
    flips = 0
    moves = 0
    for metric in sorted(set(baseline) | set(current)):
        if is_wall_clock(metric):
            continue
        before = baseline.get(metric)
        after = current.get(metric)
        if metric not in baseline:
            # A brand-new claim that is already false never had a "true ->
            # false" transition to catch, so flag it at birth.
            if after is False and is_claim(metric):
                flips += 1
                lines.append(f"  ! {metric} = False (new metric, born failing)")
            else:
                lines.append(f"  + {metric} = {after!r} (new metric)")
            continue
        if metric not in current:
            # A vanished non-numeric metric (a claim or matrix cell dropping
            # out of the tracked trajectory) counts as a flip: silently losing
            # a guarantee must trip --fail-on-flip just like regressing one.
            if not is_number(before):
                flips += 1
                lines.append(f"  ! {metric} (was {before!r}, gone)")
            else:
                moves += 1
                lines.append(f"  - {metric} (was {before!r}, gone)")
            continue
        if before == after:
            continue
        if is_number(before) and is_number(after):
            delta = after - before
            if before:
                if abs(delta / before) <= rtol:
                    continue
                moves += 1
                lines.append(
                    f"    {metric}: {before:g} -> {after:g} "
                    f"({delta:+g}, {delta / before * 100.0:+.1f}%)"
                )
            else:
                if abs(delta) <= rtol:
                    continue
                moves += 1
                lines.append(f"    {metric}: {before:g} -> {after:g} ({delta:+g})")
            continue
        flips += 1
        lines.append(f"  ! {metric}: {before!r} -> {after!r}")
    return lines, flips, moves


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--fail-on-flip",
        action="store_true",
        help="exit 1 when any non-numeric metric (e.g. a claim boolean) changed",
    )
    parser.add_argument(
        "--fail-on-move",
        action="store_true",
        help="exit 1 when any numeric metric (wall_ metrics excepted) moved "
        "beyond --rtol or disappeared",
    )
    parser.add_argument(
        "--rtol",
        type=float,
        default=0.0,
        help="suppress numeric deltas within this relative tolerance "
        "(e.g. 0.05 ignores moves under 5%%)",
    )
    arguments = parser.parse_args(argv)
    if arguments.rtol < 0:
        parser.error("--rtol must be >= 0")

    for label, directory in (("results", arguments.results), ("baseline", arguments.baseline)):
        if not directory.is_dir():
            print(f"bench-diff: {label} directory {directory} does not exist", file=sys.stderr)
            return 2

    result_files = {path.name: path for path in sorted(arguments.results.glob("BENCH_*.json"))}
    baseline_files = {path.name: path for path in sorted(arguments.baseline.glob("BENCH_*.json"))}
    if not result_files and not baseline_files:
        print("bench-diff: no BENCH_*.json files found on either side", file=sys.stderr)
        return 2

    total_flips = 0
    total_moves = 0
    changed_benchmarks = 0
    for name in sorted(set(result_files) | set(baseline_files)):
        title = name[len("BENCH_"):-len(".json")]
        if name not in baseline_files:
            metrics = load_metrics(result_files[name])
            print(
                f"{title}: missing baseline file {arguments.baseline / name} "
                f"({len(metrics)} new metrics untracked); run `make bench-smoke` "
                f"and commit benchmarks/baseline/{name} to start its trajectory"
            )
            for metric in sorted(m for m, v in metrics.items() if v is False and is_claim(m)):
                total_flips += 1
                print(f"  ! {metric} = False (new benchmark, born failing)")
            continue
        if name not in result_files:
            print(f"{title}: present in baseline only (run `make bench` to regenerate)")
            continue
        lines, flips, moves = diff_benchmark(
            load_metrics(baseline_files[name]),
            load_metrics(result_files[name]),
            rtol=arguments.rtol,
        )
        total_flips += flips
        total_moves += moves
        if lines:
            changed_benchmarks += 1
            print(f"{title}:")
            print("\n".join(lines))
        else:
            print(f"{title}: unchanged")
    print(
        f"\nbench-diff: {changed_benchmarks} benchmark(s) moved, "
        f"{total_flips} non-numeric flip(s), {total_moves} numeric move(s)"
    )
    if arguments.fail_on_flip and total_flips:
        return 1
    if arguments.fail_on_move and total_moves:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
