"""Benchmark: Table 3's four configurations in wall-clock time.

``BENCH_table3.json`` holds the paper's performance result as the cost
model computes it, in virtual ticks.  This benchmark runs the same static
WebBench workload through the same four configurations and times each
server run on the host:

1. the unmodified server, one process;
2. the UID-transformed server, one process;
3. two variants with address partitioning (the unmodified server);
4. two variants with address partitioning and the UID variation (the
   transformed server).

A fifth row, ``3t``, runs address partitioning on the *transformed* server.
It splits configuration 4 over 3 in two: the transformed server's own
extra work (``3t`` over 3: its ``cc_*`` and ``uid_value`` calls are extra
lockstep rounds) and the UID variation's hooks (4 over ``3t``: the same
rounds, re-expressed).

Per configuration the results file holds two kinds of figures:

* lockstep rounds and kernel calls per request, which the simulation fixes:
  ``bench_diff.py`` gates them exactly;
* ``wall_`` figures, which it skips: microseconds per request and per
  lockstep round, the ratio to configuration 1, and configuration 4 over 3
  (with the ``3t`` split).

Protocol: the configurations run interleaved in one process, in an order
that rotates every repetition, and only ``session.run()`` is timed (host
and session construction are not).  Each figure is the median over
``REPEATS`` repetitions; a ratio is the median of each repetition's ratio,
so a host slowdown that spans one repetition cancels out.  Every run must
serve every request, raise no alarm, and send the same bytes as
configuration 1.

Under ``--benchmark-disable`` (``make bench-smoke``) it runs
``SMOKE_REPEATS`` repetitions, checks its exact figures against the
committed results file and writes nothing, so a smoke run never replaces
the committed wall figures with a noisy few.
"""

from __future__ import annotations

import json
import statistics
import time

from conftest import RESULTS_DIR, emit, write_results

from repro.api.builders import build_session
from repro.api.spec import ADDRESS_PARTITIONING_SPEC, ADDRESS_UID_SPEC, SystemSpec, VariationSpec
from repro.apps.clients.webbench import WebBenchWorkload
from repro.apps.httpd.http import split_responses
from repro.kernel.host import build_standard_host

#: The static mix of the ``table3`` experiment, five times its default size so
#: that one run lasts tens of milliseconds.
WORKLOAD = WebBenchWorkload(total_requests=200, client_engines=1, client_machines=1)

#: (key, system) in Table 3's order, with the ``3t`` split after 3.
CONFIGURATIONS = (
    ("1-unmodified", SystemSpec(name="1-unmodified", num_variants=1, transformed=False)),
    ("2-transformed", SystemSpec(name="2-transformed", num_variants=1, transformed=True)),
    ("3-2variant-address", ADDRESS_PARTITIONING_SPEC.with_name("3-2variant-address")),
    (
        "3t-2variant-address-transformed",
        SystemSpec(
            name="3t-2variant-address-transformed",
            variations=(VariationSpec("address"),),
            transformed=True,
        ),
    ),
    ("4-2variant-uid", ADDRESS_UID_SPEC.with_name("4-2variant-uid")),
)

REPEATS = 11
SMOKE_REPEATS = 3


def run_once(spec: SystemSpec) -> dict:
    """One timed server run of *spec* over :data:`WORKLOAD`."""
    app = WORKLOAD.serving_app
    kernel = build_standard_host()
    app.prepare_host(kernel)
    for payload in WORKLOAD.connection_payloads():
        app.connect(kernel, payload)
    factory = app.make_factory(
        transformed=spec.transformed, max_requests=WORKLOAD.total_requests, multiplex=1
    )
    session = build_session(spec, kernel, factory, name=spec.name)
    started = time.perf_counter()
    result = session.run()
    elapsed = time.perf_counter() - started
    served = [connection.response_bytes() for connection in kernel.network.connections]
    statuses = [status for raw in served for status, _, _ in split_responses(raw)]
    assert not result.alarms, (spec.name, result.alarms)
    assert statuses == [200] * WORKLOAD.total_requests, (spec.name, statuses)
    return {
        "seconds": elapsed,
        "rounds": result.lockstep_rounds,
        "kernel_calls": kernel.stats.syscall_count,
        "served": served,
    }


def run_interleaved(repeats: int) -> dict[str, list[dict]]:
    """*repeats* runs of every configuration, interleaved, the order rotating."""
    runs: dict[str, list[dict]] = {key: [] for key, _ in CONFIGURATIONS}
    for repeat in range(repeats):
        shift = repeat % len(CONFIGURATIONS)
        for key, spec in CONFIGURATIONS[shift:] + CONFIGURATIONS[:shift]:
            runs[key].append(run_once(spec))
    return runs


def _ratio(runs: dict[str, list[dict]], key: str, over: str) -> float:
    """The median of each repetition's time of *key* over that of *over*."""
    pairs = zip(runs[key], runs[over])
    return round(statistics.median(a["seconds"] / b["seconds"] for a, b in pairs), 3)


def summarize(runs: dict[str, list[dict]]) -> dict:
    """The results payload: exact counts and ``wall_`` medians per configuration."""
    requests = WORKLOAD.total_requests
    reference = runs["1-unmodified"][0]["served"]
    rows = {}
    for key, _ in CONFIGURATIONS:
        first = runs[key][0]
        for run in runs[key]:
            assert (run["rounds"], run["kernel_calls"]) == (first["rounds"], first["kernel_calls"])
            assert run["served"] == reference, key
        seconds = statistics.median(run["seconds"] for run in runs[key])
        rows[key] = {
            "rounds_per_request": round(first["rounds"] / requests, 3),
            "kernel_calls_per_request": round(first["kernel_calls"] / requests, 3),
            "wall_us_per_request": round(seconds / requests * 1e6, 1),
            "wall_us_per_round": round(seconds / first["rounds"] * 1e6, 2),
            "wall_ratio_to_1": _ratio(runs, key, "1-unmodified"),
        }
    return {
        "config": {
            "requests": requests,
            "requests_per_connection": WORKLOAD.requests_per_connection,
            "repeats": len(runs["1-unmodified"]),
        },
        "configurations": rows,
        "wall_4_over_3": _ratio(runs, "4-2variant-uid", "3-2variant-address"),
        "wall_3t_over_3": _ratio(runs, "3t-2variant-address-transformed", "3-2variant-address"),
        "wall_4_over_3t": _ratio(runs, "4-2variant-uid", "3t-2variant-address-transformed"),
    }


def format_summary(payload: dict) -> str:
    lines = [
        f"{'configuration':<34} {'rounds/req':>10} {'calls/req':>10} "
        f"{'us/req':>9} {'us/round':>9} {'vs 1':>6}"
    ]
    for key, row in payload["configurations"].items():
        lines.append(
            f"{key:<34} {row['rounds_per_request']:>10.3f} {row['kernel_calls_per_request']:>10.3f} "
            f"{row['wall_us_per_request']:>9.1f} {row['wall_us_per_round']:>9.2f} "
            f"{row['wall_ratio_to_1']:>6.3f}"
        )
    lines.append(
        f"configuration 4 over 3: {payload['wall_4_over_3']:.3f} "
        f"(3t over 3: {payload['wall_3t_over_3']:.3f}, 4 over 3t: {payload['wall_4_over_3t']:.3f})"
    )
    return "\n".join(lines)


def _exact(payload: dict) -> dict:
    """The figures the simulation fixes: everything but the ``wall_`` keys."""
    return {
        key: {name: value for name, value in row.items() if not name.startswith("wall_")}
        for key, row in payload["configurations"].items()
    }


def test_table3_wall_clock(benchmark):
    smoke = benchmark.disabled
    repeats = SMOKE_REPEATS if smoke else REPEATS
    runs = benchmark.pedantic(run_interleaved, args=(repeats,), rounds=1, iterations=1)
    payload = summarize(runs)
    emit(f"Table 3 in wall-clock time (median of {repeats})", format_summary(payload))
    if smoke:
        committed = json.loads((RESULTS_DIR / "BENCH_table3_wall.json").read_text())
        assert _exact(payload) == _exact(committed)
        return
    write_results("table3_wall", payload)
