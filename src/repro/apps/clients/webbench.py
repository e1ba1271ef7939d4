"""WebBench-style workload generation and measurement.

The paper measures Table 3 with WebBench 5.0: client engines issue a mix of
static page requests against the server and report throughput (KB/s) and
latency (ms).  This module reproduces the workload side: a deterministic
weighted request mix, drivers that push the workload through a server
configuration (single process or N-variant), and a measurement record that
captures everything the virtual-time performance model needs to turn the run
into throughput and latency figures.

The client is keyed by serving app: ``WebBenchWorkload(app="ftpd")`` drives
the mini-ftpd with the same drivers and the same measurement record.  Every
app-specific detail (host setup, the wire format of a conversation, how
served responses are counted, the default mix) comes from the app's
:class:`~repro.apps.catalog.ServingApp` record.

Because the simulation is single-threaded, "client engines" do not run
concurrently; instead their count parameterises the performance model's
saturation calculation (Little's law over the measured per-request service
demand), which is where the unsaturated/saturated distinction of Table 3 is
made.  True concurrency enters through :func:`drive_engine`, which shards the
workload over many N-variant server sessions interleaved by the cooperative
multi-session engine, and through keep-alive pipelining
(``requests_per_connection``) paired with the server's connection
multiplexing.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Optional, Sequence

from repro.api.builders import build_engine, build_session
from repro.api.spec import FleetSpec, SystemSpec
# The mix types live in the catalog; the wall-clock benchmark's workloads
# import them from here.
from repro.apps.catalog import DEFAULT_STATIC_MIX, RequestMixEntry, ServingApp, get_app
from repro.core.nvariant import NVariantResult
from repro.engine import CampaignExecutionResult, NVariantSession, run_sessions
from repro.kernel.host import build_standard_host
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.syscalls import DETECTION_SYSCALLS


@dataclasses.dataclass
class WebBenchWorkload:
    """A deterministic request sequence in the WebBench style, for one app.

    ``app`` names the registered serving app (:mod:`repro.apps.catalog`)
    the workload targets; it decides the wire format of each conversation,
    how served responses are tallied and, when ``mix`` is left unset, the
    weighted path mix.  ``requests_per_connection`` models keep-alive
    clients: with the default of 1 every request travels on its own
    connection (the original WebBench behaviour); larger values put that
    many requests on one connection (pipelined GETs for the httpd, several
    RETRs in one login for the ftpd), so ``drive_*`` callers can pair the
    workload with a multiplexing server.
    """

    total_requests: int = 50
    mix: Optional[Sequence[RequestMixEntry]] = None
    client_engines: int = 1
    client_machines: int = 1
    requests_per_connection: int = 1
    app: str = "httpd"

    def __post_init__(self) -> None:
        if self.mix is None:
            self.mix = self.serving_app.default_mix

    @property
    def serving_app(self) -> ServingApp:
        """The catalog record of the app this workload targets."""
        return get_app(self.app)

    def request_paths(self) -> list[str]:
        """Expand the weighted mix into the ordered request path sequence."""
        cycle = []
        for entry in self.mix:
            cycle.extend([entry.path] * entry.weight)
        if not cycle:
            raise ValueError("request mix must not be empty")
        return list(itertools.islice(itertools.cycle(cycle), self.total_requests))

    def connection_payloads(self) -> list[bytes]:
        """One conversation's client bytes per connection, in order."""
        if self.requests_per_connection < 1:
            raise ValueError("requests_per_connection must be at least 1")
        paths = self.request_paths()
        size = self.requests_per_connection
        render = self.serving_app.conversation
        return [render(paths[i : i + size]) for i in range(0, len(paths), size)]

    def split(self, shards: int) -> list["WebBenchWorkload"]:
        """Divide the workload across *shards* independent server replicas.

        The request total is dealt out as evenly as possible (earlier shards
        receive the remainder); every other parameter is inherited.
        """
        if shards < 1:
            raise ValueError("shards must be at least 1")
        base, remainder = divmod(self.total_requests, shards)
        return [
            dataclasses.replace(self, total_requests=base + (1 if i < remainder else 0))
            for i in range(shards)
        ]

    @property
    def concurrent_clients(self) -> int:
        """Total simultaneous client engines (engines x machines)."""
        return self.client_engines * self.client_machines


#: The paper's unsaturated load: a single client machine running one engine.
UNSATURATED_WORKLOAD = WebBenchWorkload(total_requests=60, client_engines=1, client_machines=1)

#: The paper's saturated load: 3 client machines x 5 engines each.
SATURATED_WORKLOAD = WebBenchWorkload(total_requests=120, client_engines=5, client_machines=3)


@dataclasses.dataclass
class WorkloadMeasurement:
    """Everything measured from one workload run, independent of wall clock.

    The virtual-time performance model (:mod:`repro.analysis.perfmodel`)
    converts these counts into throughput and latency under a given load.
    """

    configuration: str
    num_variants: int
    requests_sent: int
    requests_completed: int
    status_counts: dict[int, int]
    response_bytes: int
    syscalls_total: int
    syscalls_per_variant: list[int]
    bytes_read: int
    bytes_written: int
    replicated_calls: int
    per_variant_calls: int
    monitor_checks: int
    detection_calls: int
    alarms: int
    concurrent_clients: int

    @property
    def completed_ok(self) -> bool:
        """True when every request produced a response and no alarm fired."""
        return self.requests_completed == self.requests_sent and self.alarms == 0

    def per_request_syscalls(self) -> float:
        """Average system calls (summed over variants) per completed request.

        With no completed requests there is no average to take, so the result
        is ``nan`` (not measured) rather than ``0.0`` (measured: zero calls
        per request) -- the two mean different things to every consumer that
        compares or thresholds this figure.
        """
        if not self.requests_completed:
            return float("nan")
        return self.syscalls_total / self.requests_completed


def _load_host(workload: WebBenchWorkload, kernel: Optional[SimulatedKernel]) -> SimulatedKernel:
    """Queue every conversation of *workload* on *kernel* (or a fresh app host)."""
    app = workload.serving_app
    if kernel is None:
        kernel = build_standard_host()
        app.prepare_host(kernel)
    for payload in workload.connection_payloads():
        app.connect(kernel, payload)
    return kernel


def _measure(kernel: SimulatedKernel, workload: WebBenchWorkload, **counts) -> WorkloadMeasurement:
    """The measurement record of one finished run.

    Every driver reads the served responses and the host-wide counters the
    same way; *counts* are the fields that depend on how the server ran.
    """
    completed, statuses, body_bytes = workload.serving_app.tally(kernel)
    breakdown = kernel.stats.syscall_breakdown
    return WorkloadMeasurement(
        requests_sent=workload.total_requests,
        requests_completed=completed,
        status_counts=statuses,
        response_bytes=body_bytes,
        bytes_read=kernel.stats.bytes_read,
        bytes_written=kernel.stats.bytes_written,
        detection_calls=sum(breakdown.get(call.value, 0) for call in DETECTION_SYSCALLS),
        concurrent_clients=workload.concurrent_clients,
        **counts,
    )


def drive_standalone(
    workload: WebBenchWorkload,
    *,
    transformed: bool = False,
    multiplex: int = 1,
    kernel: Optional[SimulatedKernel] = None,
    configuration: str = "standalone",
) -> WorkloadMeasurement:
    """Run the workload against a single (non-redundant) server process.

    ``transformed=False`` reproduces Configuration 1 of Table 3 (unmodified
    Apache on the N-variant-capable kernel); ``transformed=True`` reproduces
    Configuration 2 (the UID-transformed server running as a single process).
    The server runs as a one-variant session: with nothing to compare against,
    only a variant fault can raise an alarm.
    """
    kernel, session = _prepare_session(
        workload,
        SystemSpec(num_variants=1, transformed=transformed),
        multiplex=multiplex,
        name=workload.app,
        kernel=kernel,
    )
    result = session.run()
    return _measure(
        kernel,
        workload,
        configuration=configuration,
        num_variants=1,
        syscalls_total=kernel.stats.syscall_count,
        syscalls_per_variant=[result.variants[0].syscall_count],
        replicated_calls=0,
        per_variant_calls=kernel.stats.syscall_count,
        monitor_checks=0,
        alarms=len(result.alarms),
    )


def _prepare_session(
    workload: WebBenchWorkload,
    spec: SystemSpec,
    *,
    multiplex: int,
    name: str,
    kernel: Optional[SimulatedKernel] = None,
) -> tuple[SimulatedKernel, NVariantSession]:
    """Load the workload onto a (fresh) host and build the server session."""
    kernel = _load_host(workload, kernel)
    factory = workload.serving_app.make_factory(
        transformed=spec.transformed,
        max_requests=workload.total_requests,
        multiplex=multiplex,
    )
    return kernel, build_session(spec, kernel, factory, name=name)


def _nvariant_measurement(
    kernel: SimulatedKernel,
    workload: WebBenchWorkload,
    spec: SystemSpec,
    result: NVariantResult,
) -> WorkloadMeasurement:
    per_variant = [v.syscall_count for v in result.variants]
    return _measure(
        kernel,
        workload,
        configuration=spec.name,
        num_variants=spec.num_variants,
        syscalls_total=sum(per_variant),
        syscalls_per_variant=per_variant,
        replicated_calls=result.wrapper_stats.replicated_calls,
        per_variant_calls=result.wrapper_stats.per_variant_calls,
        monitor_checks=result.monitor.stats.syscalls_compared,
        alarms=len(result.alarms),
    )


def drive_nvariant(
    workload: WebBenchWorkload,
    spec: SystemSpec,
    *,
    multiplex: int = 1,
    kernel: Optional[SimulatedKernel] = None,
) -> tuple[WorkloadMeasurement, NVariantResult]:
    """Run the workload against a declaratively specified N-variant server.

    ``ADDRESS_PARTITIONING_SPEC`` reproduces Configuration 3 of Table 3;
    ``ADDRESS_UID_SPEC`` reproduces Configuration 4.  The spec's ``name`` is
    the measurement's configuration label.
    """
    kernel, session = _prepare_session(
        workload, spec, multiplex=multiplex, name=workload.app, kernel=kernel
    )
    result = session.run()
    return _nvariant_measurement(kernel, workload, spec, result), result


def drive_nvariant_many(
    jobs: Sequence[tuple[WebBenchWorkload, SystemSpec]],
) -> list[tuple[WorkloadMeasurement, NVariantResult]]:
    """Run several (workload, spec) pairs concurrently on one engine.

    Each job gets its own simulated host, so the interleaving cannot change
    any job's measurement relative to :func:`drive_nvariant` -- the engine's
    interleaving-determinism guarantee.  The experiment drivers (Table 3,
    the ablations) use this to sweep their configurations through the engine
    in one pass instead of looping serially.
    """
    prepared = [
        _prepare_session(workload, spec, multiplex=1, name=f"many-{index}-{spec.name}")
        for index, (workload, spec) in enumerate(jobs)
    ]
    engine_result = run_sessions([session for _, session in prepared], name="nvariant-many")
    return [
        (_nvariant_measurement(kernel, workload, spec, entry.value), entry.value)
        for (workload, spec), (kernel, _), entry in zip(jobs, prepared, engine_result.jobs)
    ]


# ---------------------------------------------------------------------------
# Concurrent multi-session driving (the engine path)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EngineWorkloadMeasurement:
    """Aggregate measurement of one concurrent multi-session run.

    Sessions model independent N-variant server replicas progressing in
    parallel, so the engine's elapsed virtual time is the maximum over the
    sessions' kernel-clock consumption while the sequential reference is
    their sum -- the ratio between the two is the engine's concurrency win.
    """

    configuration: str
    num_sessions: int
    requests_sent: int
    requests_completed: int
    status_counts: dict[int, int]
    alarms: int
    virtual_elapsed: int
    virtual_elapsed_sequential: int
    engine_result: CampaignExecutionResult

    @property
    def completed_ok(self) -> bool:
        """True when every request produced a response and no alarm fired."""
        return self.requests_completed == self.requests_sent and self.alarms == 0

    def requests_per_kilotick(self) -> float:
        """Aggregate throughput in requests per 1000 virtual clock ticks.

        ``nan`` when no virtual time elapsed: an empty run measured nothing,
        which is different from measuring a throughput of zero.
        """
        if not self.virtual_elapsed:
            return float("nan")
        return self.requests_completed * 1000.0 / self.virtual_elapsed

    def sequential_requests_per_kilotick(self) -> float:
        """What the same workload sustains run back-to-back on one replica.

        ``nan`` when the sequential reference elapsed no virtual time (see
        :meth:`requests_per_kilotick`).
        """
        if not self.virtual_elapsed_sequential:
            return float("nan")
        return self.requests_completed * 1000.0 / self.virtual_elapsed_sequential

    def speedup(self) -> float:
        """Concurrent over sequential aggregate throughput.

        ``nan`` when either side is unmeasured -- propagating the sentinel is
        what lets consumers distinguish "no measurement" from a genuine 0.0x.
        """
        sequential = self.sequential_requests_per_kilotick()
        concurrent = self.requests_per_kilotick()
        if sequential != sequential or concurrent != concurrent or not sequential:
            return float("nan")
        return concurrent / sequential


def drive_engine(
    fleet: FleetSpec, *, workload: Optional[WebBenchWorkload] = None
) -> EngineWorkloadMeasurement:
    """Drive the fleet a :class:`~repro.api.spec.FleetSpec` describes.

    The fleet's workload shape is expanded into a WebBench workload and split
    over ``fleet.num_sessions`` concurrent N-variant replicas, each running
    the full server on its own simulated host (a sharded fleet behind a
    load balancer) with lockstep rounds interleaved by the cooperative
    scheduler.  Sessions are built fresh from ``fleet.system`` per shard, so
    no per-host state is shared.  Pass *workload* to override the expanded
    request sequence (e.g. a custom mix, or ``app="ftpd"``) while keeping
    the fleet shape.
    """
    if workload is None:
        workload = WebBenchWorkload(**fleet.workload.to_dict())
    prepared = [
        _prepare_session(shard, fleet.system, multiplex=fleet.multiplex, name=f"{fleet.name}-s{index}")
        for index, shard in enumerate(workload.split(fleet.num_sessions))
    ]
    engine_result = build_engine(fleet, [session for _, session in prepared]).run()

    completed = 0
    statuses: dict[int, int] = {}
    for kernel, _ in prepared:
        shard_completed, shard_statuses, _ = workload.serving_app.tally(kernel)
        completed += shard_completed
        for status, count in shard_statuses.items():
            statuses[status] = statuses.get(status, 0) + count

    return EngineWorkloadMeasurement(
        configuration=fleet.name,
        num_sessions=fleet.num_sessions,
        requests_sent=workload.total_requests,
        requests_completed=completed,
        status_counts=statuses,
        alarms=sum(len(session.monitor.alarms) for _, session in prepared),
        virtual_elapsed=engine_result.virtual_elapsed,
        virtual_elapsed_sequential=engine_result.virtual_elapsed_sequential,
        engine_result=engine_result,
    )
