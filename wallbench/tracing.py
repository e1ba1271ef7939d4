"""Span tracing for the benchmark's traced run.

The wrappers live here, in the benchmark, and are installed around the
public functions of each layer only for the traced run; the library carries
no timing code.  A span records its name, start, end, parent and round id.
The round id is shared by every span that one ``NVariantSession.step`` call
encloses.  Spans are kept in flat arrays while the run lasts and written out
once, when it ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from wallbench.stats import median, percentile, tail_percentile

#: (span name, module, attribute) for every wrapped call.  The attribute is a
#: module-level function or ``Class.method``; several targets may share a
#: span name (the admission policies' ``offer``).
SPAN_TARGETS = (
    ("engine.step", "repro.engine.session", "NVariantSession.step"),
    ("engine.engine_run", "repro.engine.scheduler", "MultiSessionEngine.run"),
    ("engine.campaign_run", "repro.engine.campaign", "CampaignScheduler.run"),
    ("core.check", "repro.core.monitor", "SyscallComparator.check_round"),
    ("core.transform", "repro.core.monitor", "SyscallComparator.transform_round"),
    ("core.result", "repro.core.variations.base", "VariationStack.transform_result"),
    ("core.wrappers", "repro.core.wrappers", "SyscallWrappers.execute_round"),
    ("kernel.execute", "repro.kernel.kernel", "SimulatedKernel.execute"),
    ("kernel.host", "repro.kernel.host", "build_standard_host"),
    ("api.build_session", "repro.api.builders", "build_session"),
    ("load.restart", "repro.engine.session", "NVariantSession.restart"),
    ("load.admission", "repro.load.admission", "AcceptAllPolicy.offer"),
    ("load.admission", "repro.load.admission", "BoundedQueuePolicy.offer"),
    ("load.admission", "repro.load.admission", "TokenBucketPolicy.offer"),
    ("load.checkpoint", "repro.load.checkpoint", "checkpoint"),
    ("load.restore", "repro.load.checkpoint", "restore"),
    ("load.driver", "repro.load.driver", "run_loadtest"),
    ("corpus.generate", "repro.corpus.generator", "generate_corpus"),
    ("corpus.grade", "repro.corpus.scorecard", "evaluate_corpus"),
)

#: The span whose every call opens a new round id.
ROUND_SPAN = "engine.step"

#: Constructors whose instances the traced run keeps, so the counters they
#: hold (MonitorStats, WrapperStats) can be read once the passes are done.
INSTANCE_TARGETS = (
    ("monitors", "repro.core.monitor", "Monitor.__init__"),
    ("wrappers", "repro.core.wrappers", "SyscallWrappers.__init__"),
)


class Patcher:
    """Replaces functions and methods in place, and puts them back.

    A module-level function is replaced in every loaded module that holds
    it under any name, because callers commonly bind it with
    ``from module import name``.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, attribute: str, make: Callable[[Any], Any]) -> None:
        owner: Any = importlib.import_module(module)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        if path:
            original = owner.__dict__[name]
            self._set(owner, name, make(original))
            return
        original = getattr(owner, name)
        replacement = make(original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(loaded, key, replacement)

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.rounds = array("l")
        self._stack: list[int] = []
        self._next_round = 0
        self.instances: dict[str, dict[int, Any]] = {}
        self._patcher = Patcher()

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def record(self, name: str, start: int, end: int, parent: int = -1, round_id: int = -1) -> int:
        """Append one finished span directly (tests build span trees with it)."""
        self.name_ids.append(self.name_id(name))
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.rounds.append(round_id)
        return len(self.starts) - 1

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap *fn* so that every call records a span named *name*."""
        nid = self.name_id(name)
        stack = self._stack
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, rounds = self.parents, self.rounds
        clock = time.perf_counter_ns
        opens_round = name == ROUND_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            parent = stack[-1] if stack else -1
            if opens_round:
                self._next_round += 1
                round_id = self._next_round
            else:
                round_id = rounds[parent] if parent >= 0 else -1
            name_ids.append(nid)
            parents.append(parent)
            rounds.append(round_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def collector(self, kind: str, init: Callable) -> Callable:
        """Wrap a constructor so every instance it builds is kept."""
        kept = self.instances.setdefault(kind, {})

        @functools.wraps(init)
        def collecting(instance, *args, **kwargs):
            kept[id(instance)] = instance
            return init(instance, *args, **kwargs)

        return collecting

    def install(self) -> None:
        for name, module, attribute in SPAN_TARGETS:
            self._patcher.replace(module, attribute, lambda fn, n=name: self.span(n, fn))
        for kind, module, attribute in INSTANCE_TARGETS:
            self._patcher.replace(module, attribute, lambda fn, k=kind: self.collector(k, fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    def write(self, path: Path, **provenance: Any) -> None:
        """Write every span as one gzipped JSON document of parallel columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            **provenance,
            "names": self.names,
            "name": self.name_ids.tolist(),
            "start_ns": self.starts.tolist(),
            "end_ns": self.ends.tolist(),
            "parent": self.parents.tolist(),
            "round": self.rounds.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(document, out, separators=(",", ":"))


def _covered(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is not None and start < reach:
            start = reach
        if end > start:
            total += end - start
        reach = end if reach is None else max(reach, end)
    return total


def self_times(tracer: Tracer) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover.

    Only direct children are subtracted: a grandchild lies inside its
    parent, which was already taken away as a whole.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    starts, ends = tracer.starts, tracer.ends
    for index, parent in enumerate(tracer.parents):
        if parent >= 0:
            start = max(starts[index], starts[parent])
            end = min(ends[index], ends[parent])
            if end > start:
                children.setdefault(parent, []).append((start, end))
    return [
        ends[index] - starts[index] - _covered(children.get(index, ()))
        for index in range(len(starts))
    ]


def uncovered_ns(tracer: Tracer, windows: Sequence[tuple[int, int]]) -> int:
    """Wall time inside *windows* that no top-level span covers."""
    tops = [
        (tracer.starts[i], tracer.ends[i])
        for i, parent in enumerate(tracer.parents)
        if parent < 0
    ]
    total = 0
    for begin, finish in windows:
        inside = [(max(s, begin), min(e, finish)) for s, e in tops if e > begin and s < finish]
        total += (finish - begin) - _covered(inside)
    return total


#: Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "engine.step.calls": "count/pass",
    "engine.step.us_p50": "us",
    "engine.step.us_p99": "us",
    "engine.step.self_us": "us/pass",
    "engine.scheduler.self_us": "us/pass",
    "engine.campaign.queue_wait_ms_p50": "ms",
    "core.check.calls": "count/pass",
    "core.check.us": "us/pass",
    "core.fast_path_ratio": "ratio",
    "core.transform.us": "us/pass",
    "core.result.calls": "count/pass",
    "core.result.us": "us/pass",
    "core.wrappers.self_us": "us/pass",
    "core.wrappers.replicated_ratio": "ratio",
    "core.alarms": "count/pass",
    "kernel.execute.calls": "count/pass",
    "kernel.execute.us": "us/pass",
    "kernel.host.us": "us/pass",
    "api.build_session.us": "us/pass",
    "load.restart.calls": "count/pass",
    "load.restart.us": "us/pass",
    "load.admission.us": "us/pass",
    "load.migrate.us": "us/pass",
    "load.driver.self_us": "us/pass",
    "load.bursts_per_request": "ratio",
    "corpus.generate.us": "us",
    "corpus.grade.us": "us/pass",
    "trace_overhead": "ratio",
    "trace.uncovered_frac": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    passes: int,
    windows: Sequence[tuple[int, int]],
    traced_throughput: float,
    untraced_throughput: float,
    cell_starts_ns: Sequence[int] = (),
    bursts: int = 0,
    completed: int = 0,
) -> tuple[dict[str, float], dict[str, Any], list[tuple[str, float, float, float]]]:
    """Per-layer metrics from the spans of *passes* traced workload passes.

    Returns the metrics (``LAYER_UNITS`` keys), the sample counts behind
    each percentile, and a per-span table of (name, calls, total us, self
    us) per pass, busiest first.  ``cell_starts_ns`` are the moments
    campaign cells got a worker slot; ``bursts``/``completed`` come from the
    load driver's results.
    """
    selfs = self_times(tracer)
    count: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    step_us: list[float] = []
    campaign_runs: list[tuple[int, int]] = []
    for index, nid in enumerate(tracer.name_ids):
        name = tracer.names[nid]
        duration = tracer.ends[index] - tracer.starts[index]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0) + duration
        own[name] = own.get(name, 0) + selfs[index]
        if name == ROUND_SPAN:
            step_us.append(duration / 1000.0)
        elif name == "engine.campaign_run":
            campaign_runs.append((tracer.starts[index], tracer.ends[index]))

    waits_ms = []
    for started in cell_starts_ns:
        enclosing = [s for s, e in campaign_runs if s <= started <= e]
        if enclosing:
            waits_ms.append((started - max(enclosing)) / 1e6)

    monitors = list(tracer.instances.get("monitors", {}).values())
    wrappers = list(tracer.instances.get("wrappers", {}).values())
    fast = sum(m.stats.fast_path_rounds for m in monitors)
    points = sum(m.stats.lockstep_points for m in monitors)
    replicated = sum(w.stats.replicated_calls for w in wrappers)
    per_variant = sum(w.stats.per_variant_calls for w in wrappers)

    def per_pass(value: float) -> float:
        return value / passes

    def us(table: Mapping[str, int], *names: str) -> float:
        return per_pass(sum(table.get(name, 0) for name in names) / 1000.0)

    window_ns = sum(end - start for start, end in windows)
    metrics = {
        "engine.step.calls": per_pass(count.get(ROUND_SPAN, 0)),
        "engine.step.us_p50": median(step_us) if step_us else 0.0,
        "engine.step.us_p99": percentile(step_us, 99.0) if step_us else 0.0,
        "engine.step.self_us": us(own, ROUND_SPAN),
        "engine.scheduler.self_us": us(own, "engine.engine_run", "engine.campaign_run"),
        "engine.campaign.queue_wait_ms_p50": median(waits_ms) if waits_ms else 0.0,
        "core.check.calls": per_pass(count.get("core.check", 0)),
        "core.check.us": us(total, "core.check"),
        "core.fast_path_ratio": _ratio(fast, points),
        "core.transform.us": us(total, "core.transform"),
        "core.result.calls": per_pass(count.get("core.result", 0)),
        "core.result.us": us(total, "core.result"),
        "core.wrappers.self_us": us(own, "core.wrappers"),
        "core.wrappers.replicated_ratio": _ratio(replicated, replicated + per_variant),
        "core.alarms": per_pass(sum(len(m.alarms) for m in monitors)),
        "kernel.execute.calls": per_pass(count.get("kernel.execute", 0)),
        "kernel.execute.us": us(total, "kernel.execute"),
        "kernel.host.us": us(total, "kernel.host"),
        "api.build_session.us": us(total, "api.build_session"),
        "load.restart.calls": per_pass(count.get("load.restart", 0)),
        "load.restart.us": us(total, "load.restart"),
        "load.admission.us": us(total, "load.admission"),
        "load.migrate.us": us(total, "load.checkpoint", "load.restore"),
        "load.driver.self_us": us(own, "load.driver"),
        "load.bursts_per_request": _ratio(bursts, completed),
        "corpus.generate.us": total.get("corpus.generate", 0) / 1000.0,
        "corpus.grade.us": us(total, "corpus.grade"),
        "trace_overhead": _ratio(untraced_throughput - traced_throughput, traced_throughput),
        "trace.uncovered_frac": _ratio(uncovered_ns(tracer, windows), window_ns),
    }
    samples = {
        "engine.step.us": {"samples": len(step_us), "tail_percentile": tail_percentile(len(step_us))},
        "engine.campaign.queue_wait_ms": {
            "samples": len(waits_ms),
            "tail_percentile": tail_percentile(len(waits_ms)),
        },
        "spans": len(tracer),
        "passes": passes,
    }
    table = sorted(
        ((name, per_pass(count[name]), us(total, name), us(own, name)) for name in count),
        key=lambda row: -row[3],
    )
    return metrics, samples, table
