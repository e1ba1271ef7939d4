"""The benchmark's three workloads, each run as a sequence of passes.

A workload draws all of its inputs from the run's seed when it is built.
Every pass then runs one unit of that work and times it, and ``check``
compares the pass's outputs with what a correct run must give.  Checks
happen outside the timed window.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Any

from repro.api.builders import build_session
from repro.api.seeding import derive_seed
from repro.api.spec import ADDRESS_UID_SPEC, uid_orbit_spec
from repro.apps.clients.webbench import (
    DEFAULT_STATIC_MIX,
    RequestMixEntry,
    WebBenchWorkload,
    drive_standalone,
)
from repro.apps.httpd.server import make_httpd_factory
from repro.corpus import runner as corpus_runner
from repro.corpus.generator import generate_corpus
from repro.corpus.runner import run_corpus_records
from repro.corpus.scorecard import evaluate_corpus
from repro.engine import MultiSessionEngine
from repro.kernel.host import HTTP_PORT, build_standard_host
from repro.load.driver import run_loadtest

from wallbench.checks import corpus_failures, fleet_failures, openloop_failures
from wallbench.tracing import Patcher

clock = time.perf_counter_ns


@dataclasses.dataclass
class PassResult:
    """One pass: its timed window, the work it completed, and its outputs."""

    index: int
    #: Which of the workload's input sets the pass ran.
    input_set: int
    seconds: float
    #: Requests served (fleet, open loop) or cells graded (corpus).
    work: int
    #: The pass's workload part (inputs, build, run; not checks), for the
    #: trace's uncovered-time figure.
    window_ns: tuple[int, int]
    outputs: Any = None
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = dataclasses.field(default_factory=list)
    #: Corpus only: each cell's wall time from start to finish, and the
    #: moment it got a worker slot.
    cell_ms: list[float] = dataclasses.field(default_factory=list)
    cell_starts_ns: list[int] = dataclasses.field(default_factory=list)
    bursts: int = 0
    completed: int = 0


class Workload:
    """Base class: ``run_pass`` does and times the work, ``check`` grades it."""

    name = ""
    why = ""
    #: What one unit of ``PassResult.work`` is.
    unit = ""
    #: Passes the traced run covers; fixed so its counts repeat exactly.
    traced_passes = 1
    #: Distinct inputs drawn per run; pass ``i`` runs input set
    #: ``i % INPUT_SETS``.
    INPUT_SETS = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.prepare_inputs()

    def prepare_inputs(self) -> None:
        """Draw the inputs from the seed (repeated under the tracer)."""

    def warm_up(self) -> None:
        """Run once untimed so lazy imports and caches are settled."""
        self.run_pass(0)

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> None:
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """The input shape, for the output's provenance."""
        return {}


class FleetHttpd(Workload):
    """8 concurrent sessions of the N=2 address+uid httpd, a closed batch."""

    name = "fleet-httpd"
    why = (
        "the 8-session keep-alive httpd fleet: almost all time is the per-round "
        "hot path (comparator, wrappers and kernel, result transform, program advance)"
    )
    unit = "requests"
    traced_passes = 16

    SPEC = ADDRESS_UID_SPEC
    SESSIONS = 8
    #: Four whole cycles of the weighted static mix per pass, so every pass
    #: serves the same documents; the seed draws their order.
    MIX_CYCLES = 4
    KEEPALIVE = 4
    MULTIPLEX = 4
    INPUT_SETS = 4

    def prepare_inputs(self) -> None:
        cycle = [entry.path for entry in DEFAULT_STATIC_MIX for _ in range(entry.weight)]
        self.requests = len(cycle) * self.MIX_CYCLES
        self.inputs: list[list[WebBenchWorkload]] = []
        for index in range(self.INPUT_SETS):
            paths = cycle * self.MIX_CYCLES
            random.Random(derive_seed(self.seed, self.name, index)).shuffle(paths)
            batch = WebBenchWorkload(
                total_requests=len(paths),
                mix=tuple(RequestMixEntry(path) for path in paths),
                requests_per_connection=self.KEEPALIVE,
            )
            shards = batch.split(self.SESSIONS)
            offset = 0
            sliced = []
            for shard in shards:
                sliced.append(
                    dataclasses.replace(
                        shard, mix=batch.mix[offset : offset + shard.total_requests]
                    )
                )
                offset += shard.total_requests
            self.inputs.append(sliced)
        self._references: dict[int, list[list[bytes]]] = {}

    def _reference(self, input_set: int) -> list[list[bytes]]:
        """Each shard's responses from the unprotected single-process httpd."""
        if input_set not in self._references:
            shards = []
            for shard in self.inputs[input_set]:
                kernel = build_standard_host()
                drive_standalone(
                    shard, transformed=True, multiplex=self.MULTIPLEX, kernel=kernel
                )
                shards.append([c.response_bytes() for c in kernel.network.connections])
            self._references[input_set] = shards
        return self._references[input_set]

    def run_pass(self, index: int) -> PassResult:
        begin = clock()
        input_set = index % self.INPUT_SETS
        shards = self.inputs[input_set]
        kernels = []
        sessions = []
        for number, shard in enumerate(shards):
            kernel = build_standard_host()
            for payload in shard.connection_payloads():
                kernel.client_connect(HTTP_PORT, payload)
            factory = make_httpd_factory(
                transformed=self.SPEC.transformed,
                max_requests=shard.total_requests,
                multiplex=self.MULTIPLEX,
            )
            sessions.append(build_session(self.SPEC, kernel, factory, name=f"fleet-s{number}"))
            kernels.append(kernel)
        engine = MultiSessionEngine(sessions, name=self.name)
        start = clock()
        engine.run()
        end = clock()
        served = [[c.response_bytes() for c in kernel.network.connections] for kernel in kernels]
        seconds = (end - start) / 1e9
        return PassResult(
            index=index,
            input_set=input_set,
            seconds=seconds,
            work=self.requests,
            window_ns=(begin, end),
            outputs=served,
        )

    def check(self, result: PassResult) -> None:
        shards = self.inputs[result.input_set]
        reference = self._reference(result.input_set)
        result.attempted = self.requests
        for shard, served, expected in zip(shards, result.outputs, reference):
            failed, reasons = fleet_failures(served, expected, shard.total_requests)
            result.failed += failed
            result.reasons.extend(reasons)
        result.work = self.requests - result.failed

    def describe(self) -> dict[str, Any]:
        return {
            "spec": self.SPEC.name,
            "sessions": self.SESSIONS,
            "requests_per_pass": self.requests,
            "requests_per_connection": self.KEEPALIVE,
            "multiplex": self.MULTIPLEX,
            "input_sets": self.INPUT_SETS,
        }


class _CellClock:
    """Timestamps each corpus cell's ``start`` and ``finish``.

    Installed around ``repro.corpus.runner.prepare_record`` for the whole
    run, traced or not.  It reads the clock twice per cell, and a cell lasts
    milliseconds; it adds nothing per round.
    """

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._patcher = Patcher()
        self._patcher.replace(corpus_runner.__name__, "prepare_record", self._wrap)

    def reset(self) -> None:
        self.starts = []
        self.ends = []

    def _wrap(self, prepare):
        def timed_prepare(record):
            cell = prepare(record)
            slot = len(self.starts)
            self.starts.append(0)
            self.ends.append(0)

            def start():
                self.starts[slot] = clock()
                return cell.start()

            def finish(session):
                value = cell.finish(session)
                self.ends[slot] = clock()
                return value

            return dataclasses.replace(cell, start=start, finish=finish)

        return timed_prepare


class CorpusGrade(Workload):
    """The seeded scenario corpus, run on the campaign scheduler and graded."""

    name = "corpus-grade"
    why = (
        "the seeded attack corpus at N=2..8: every cell builds its own host and "
        "session and most end on the comparator's alarm-and-halt slow path"
    )
    unit = "cells"
    traced_passes = 4

    RECORDS = 240
    WORKERS = 8
    WARM_UP_RECORDS = 24
    #: The corpus is graded in four interleaved slices of 60 records, one per
    #: pass: short passes let the fast-percentile pass time find the quiet
    #: moments of a shared host, and each slice mixes every family and N.
    INPUT_SETS = 4

    def __init__(self, seed: int):
        self.cells = _CellClock()
        super().__init__(seed)

    def prepare_inputs(self) -> None:
        self.records = generate_corpus(self.seed, records=self.RECORDS)
        self.slices = [self.records[k :: self.INPUT_SETS] for k in range(self.INPUT_SETS)]

    def warm_up(self) -> None:
        run_corpus_records(self.records[: self.WARM_UP_RECORDS], workers=self.WORKERS)

    def run_pass(self, index: int) -> PassResult:
        input_set = index % self.INPUT_SETS
        records = self.slices[input_set]
        self.cells.reset()
        start = clock()
        outcomes = run_corpus_records(records, workers=self.WORKERS)
        scorecard = evaluate_corpus(records, outcomes)
        end = clock()
        return PassResult(
            index=index,
            input_set=input_set,
            seconds=(end - start) / 1e9,
            work=len(records),
            cell_ms=[(e - s) / 1e6 for s, e in zip(self.cells.starts, self.cells.ends)],
            window_ns=(start, end),
            outputs=scorecard,
            cell_starts_ns=list(self.cells.starts),
        )

    def check(self, result: PassResult) -> None:
        result.attempted = result.outputs.total
        result.failed, result.reasons = corpus_failures(result.outputs)

    def describe(self) -> dict[str, Any]:
        return {
            "records": len(self.records),
            "records_per_pass": [len(records) for records in self.slices],
            "workers": self.WORKERS,
            "variant_counts": sorted({record.num_variants for record in self.records}),
            "families": sorted({record.family for record in self.records}),
        }


class OpenloopFtpd(Workload):
    """Bursty open-loop arrivals against ftpd under the N=3 uid orbit."""

    name = "openloop-ftpd"
    why = (
        "the only workload where repro.load works: bursty arrivals above the "
        "service rate, token-bucket admission, a restart per burst, a mid-run migration"
    )
    unit = "requests"
    traced_passes = 32

    SPEC = uid_orbit_spec(3)
    ARRIVALS = 50
    #: Long-run arrivals per kilotick: 1.25x the 12.2 req/ktick this
    #: configuration serves, so the open loop runs above its service rate.
    RATE = 15.0
    ARRIVAL_PARAMS = {"burst_factor": 4.0, "mean_on_ticks": 50.0}
    #: The bucket refills faster than the long-run rate, so it sheds only
    #: inside bursts and always has a token for the trailing attacks, which
    #: arrive one mean gap apart.
    ADMISSION_PARAMS = {"rate": 1.25 * RATE, "burst": 4.0}
    ATTACKS = ("uid-overwrite", "pointer-overwrite")
    MIGRATE_AFTER = 10
    INPUT_SETS = 16

    def run_pass(self, index: int) -> PassResult:
        input_set = index % self.INPUT_SETS
        start = clock()
        result = run_loadtest(
            self.SPEC,
            app="ftpd",
            arrival="bursty",
            rate=self.RATE,
            requests=self.ARRIVALS,
            admission="token-bucket",
            admission_params=self.ADMISSION_PARAMS,
            arrival_params=self.ARRIVAL_PARAMS,
            seed=derive_seed(self.seed, self.name, input_set),
            attacks=self.ATTACKS,
            migrate_after=self.MIGRATE_AFTER,
            name=self.name,
        )
        end = clock()
        seconds = (end - start) / 1e9
        return PassResult(
            index=index,
            input_set=input_set,
            seconds=seconds,
            work=result.completed,
            window_ns=(start, end),
            outputs=result.to_dict(),
            bursts=result.bursts,
            completed=result.completed,
        )

    def check(self, result: PassResult) -> None:
        result.attempted = result.outputs["offered"]
        result.failed, result.reasons = openloop_failures(result.outputs)

    def describe(self) -> dict[str, Any]:
        return {
            "spec": self.SPEC.name,
            "app": "ftpd",
            "arrivals": "bursty",
            "arrivals_per_pass": self.ARRIVALS,
            "rate_per_ktick": self.RATE,
            "arrival_params": self.ARRIVAL_PARAMS,
            "admission": {"kind": "token-bucket", **self.ADMISSION_PARAMS},
            "attacks": list(self.ATTACKS),
            "migrate_after": self.MIGRATE_AFTER,
            "input_sets": self.INPUT_SETS,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FleetHttpd, CorpusGrade, OpenloopFtpd)
}


def build(name: str, seed: int) -> Workload:
    """Set a workload up: draw its inputs and warm it."""
    workload = WORKLOADS[name](seed)
    workload.warm_up()
    return workload
