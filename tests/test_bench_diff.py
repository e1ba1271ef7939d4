"""The benchmark trajectory diff tool: tolerance and wall-clock noise gating.

``benchmarks/bench_diff.py`` is a standalone script (not on the package
path), so it is loaded by file location.  These tests pin the noise
controls the CI gate relies on: ``wall_``-prefixed metrics never enter the
diff, ``--rtol`` suppresses jitter-sized numeric moves, claim flips still
fail loudly through both filters, and ``--fail-on-move`` fails on any
numeric move beyond the tolerance.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_BENCH_DIFF = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_diff.py"
_spec = importlib.util.spec_from_file_location("bench_diff", _BENCH_DIFF)
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)


class TestWallClockExclusion:
    def test_wall_prefix_matches_leaf_component_only(self):
        assert bench_diff.is_wall_clock("wall_seconds")
        assert bench_diff.is_wall_clock("rows.0.wall_speedup")
        assert bench_diff.is_wall_clock("telemetry.wall_host_cpus")
        assert not bench_diff.is_wall_clock("rows.0.virtual_elapsed")
        assert not bench_diff.is_wall_clock("firewall_rules")  # no dot-leaf match

    def test_wall_metrics_never_reach_the_diff(self):
        baseline = {"wall_seconds": 1.0, "cells": 10}
        current = {"wall_seconds": 9.0, "cells": 10}
        lines, flips, _ = bench_diff.diff_benchmark(baseline, current)
        assert lines == [] and flips == 0

    def test_wall_metric_appearing_or_vanishing_is_silent(self):
        lines, flips, _ = bench_diff.diff_benchmark({"wall_seconds": 1.0}, {"cells": 3})
        assert flips == 0
        assert all("wall_seconds" not in line for line in lines)


class TestRelativeTolerance:
    def test_rtol_suppresses_jitter_sized_moves(self):
        baseline = {"speedup": 4.0}
        current = {"speedup": 4.1}
        lines, *_ = bench_diff.diff_benchmark(baseline, current, rtol=0.05)
        assert lines == []
        lines, *_ = bench_diff.diff_benchmark(baseline, current, rtol=0.01)
        assert len(lines) == 1 and "speedup" in lines[0]

    def test_rtol_zero_keeps_every_numeric_move(self):
        lines, *_ = bench_diff.diff_benchmark({"n": 1.0}, {"n": 1.000001})
        assert len(lines) == 1

    def test_rtol_is_absolute_against_a_zero_baseline(self):
        lines, *_ = bench_diff.diff_benchmark({"n": 0}, {"n": 0.01}, rtol=0.05)
        assert lines == []
        lines, *_ = bench_diff.diff_benchmark({"n": 0}, {"n": 0.5}, rtol=0.05)
        assert len(lines) == 1

    def test_rtol_never_suppresses_claim_flips(self):
        baseline = {"claims.detected": True, "speedup": 4.0}
        current = {"claims.detected": False, "speedup": 4.0}
        lines, flips, _ = bench_diff.diff_benchmark(baseline, current, rtol=0.5)
        assert flips == 1
        assert any("claims.detected" in line for line in lines)


class TestMainGate:
    def _write(self, directory, name, payload):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))

    def test_fail_on_flip_with_rtol(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        results = tmp_path / "results"
        self._write(baseline, "demo", {"ok": True, "speedup": 4.0, "wall_seconds": 1.0})
        self._write(results, "demo", {"ok": True, "speedup": 4.05, "wall_seconds": 7.0})
        argv = [
            "--baseline", str(baseline), "--results", str(results),
            "--fail-on-flip", "--rtol", "0.05",
        ]
        assert bench_diff.main(argv) == 0
        assert "unchanged" in capsys.readouterr().out

        self._write(results, "demo", {"ok": False, "speedup": 4.05, "wall_seconds": 7.0})
        assert bench_diff.main(argv) == 1

    @pytest.mark.parametrize(
        "speedup, wall_seconds, status",
        [
            (4.5, 1.0, 1),  # moved beyond --rtol
            (4.05, 1.0, 0),  # within --rtol
            (4.0, 9.0, 0),  # only a wall_ metric moved
            (None, 1.0, 1),  # a numeric metric disappeared
        ],
    )
    def test_fail_on_move(self, tmp_path, speedup, wall_seconds, status):
        baseline = tmp_path / "baseline"
        results = tmp_path / "results"
        self._write(baseline, "demo", {"ok": True, "speedup": 4.0, "wall_seconds": 1.0})
        current = {"ok": True, "wall_seconds": wall_seconds}
        if speedup is not None:
            current["speedup"] = speedup
        self._write(results, "demo", current)
        argv = [
            "--baseline", str(baseline), "--results", str(results),
            "--fail-on-flip", "--fail-on-move", "--rtol", "0.05",
        ]
        assert bench_diff.main(argv) == status

    def test_missing_baseline_names_file_and_regeneration_target(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        results = tmp_path / "results"
        self._write(baseline, "old", {"ok": True})
        self._write(results, "old", {"ok": True})
        self._write(results, "fresh", {"ok": True, "cells": 3})
        argv = ["--baseline", str(baseline), "--results", str(results), "--fail-on-flip"]
        assert bench_diff.main(argv) == 0  # a new benchmark is not a flip
        out = capsys.readouterr().out
        assert "missing baseline file" in out
        assert str(baseline / "BENCH_fresh.json") in out
        assert "make bench-smoke" in out
        assert "commit benchmarks/baseline/BENCH_fresh.json" in out

    def test_missing_baseline_still_catches_born_failing_claims(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        results = tmp_path / "results"
        baseline.mkdir()
        self._write(results, "fresh", {"ok": False, "claims.holds": False})
        argv = ["--baseline", str(baseline), "--results", str(results), "--fail-on-flip"]
        assert bench_diff.main(argv) == 1
        out = capsys.readouterr().out
        assert "born failing" in out

    def test_negative_rtol_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            bench_diff.main(["--rtol", "-1"])
        assert excinfo.value.code == 2
