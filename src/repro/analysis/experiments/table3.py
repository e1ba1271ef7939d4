"""Experiment: reproduce Table 3 (performance of the four configurations).

Runs the WebBench-style static workload through the four configurations the
paper measures:

1. unmodified server, single process (baseline);
2. UID-transformed server, single process;
3. 2-variant system with address-space partitioning (untransformed server);
4. 2-variant system with address partitioning + the UID variation
   (transformed server).

Each configuration's run produces a :class:`WorkloadMeasurement` (real counts
from the simulation); the virtual-time performance model converts those into
throughput and latency under the unsaturated (1 client engine) and saturated
(15 engines across 3 machines) load levels.  The paper's absolute numbers
come from physical hardware; what this experiment reproduces is the shape:
negligible cost for the transformation alone, roughly halved throughput under
saturation for two variants, a modest unsaturated penalty, and a small
additional cost for the UID variation on top of the 2-variant baseline.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.perfmodel import PerfPoint, PerformanceModel, percent_change
from repro.api.experiments import ExperimentReport, ReportKeyValues, ReportTable
from repro.api.spec import ADDRESS_PARTITIONING_SPEC, ADDRESS_UID_SPEC
from repro.apps.clients.webbench import (
    SATURATED_WORKLOAD,
    UNSATURATED_WORKLOAD,
    WebBenchWorkload,
    WorkloadMeasurement,
    drive_nvariant_many,
    drive_standalone,
)

#: Paper values for side-by-side comparison: configuration -> load -> metrics.
PAPER_TABLE3 = {
    "1-unmodified": {"unsaturated": (1010.0, 5.81), "saturated": (5420.0, 16.32)},
    "2-transformed": {"unsaturated": (973.0, 5.81), "saturated": (5372.0, 16.24)},
    "3-2variant-address": {"unsaturated": (887.0, 6.56), "saturated": (2369.0, 37.36)},
    "4-2variant-uid": {"unsaturated": (877.0, 6.65), "saturated": (2262.0, 38.49)},
}

#: Human-readable configuration descriptions (as in the paper's table).
CONFIGURATION_DESCRIPTIONS = {
    "1-unmodified": "Unmodified Apache",
    "2-transformed": "Transformed Apache",
    "3-2variant-address": "2-Variant Address Space",
    "4-2variant-uid": "2-Variant UID",
}


@dataclasses.dataclass
class ConfigurationResult:
    """Measurement and modelled performance for one configuration."""

    key: str
    description: str
    measurement: WorkloadMeasurement
    unsaturated: PerfPoint
    saturated: PerfPoint


@dataclasses.dataclass
class Table3Result:
    """All four configurations plus comparison helpers."""

    configurations: list[ConfigurationResult]

    def by_key(self, key: str) -> ConfigurationResult:
        """Look up one configuration by its key."""
        for configuration in self.configurations:
            if configuration.key == key:
                return configuration
        raise KeyError(key)

    # -- the paper's headline ratios -----------------------------------------------

    def overhead_vs_baseline(self, key: str, *, saturated: bool) -> float:
        """Throughput change (percent) of *key* relative to Configuration 1."""
        baseline = self.by_key("1-unmodified")
        target = self.by_key(key)
        if saturated:
            return percent_change(baseline.saturated.throughput_kbps, target.saturated.throughput_kbps)
        return percent_change(baseline.unsaturated.throughput_kbps, target.unsaturated.throughput_kbps)

    def uid_overhead_vs_2variant(self, *, saturated: bool) -> float:
        """Throughput change of Configuration 4 relative to Configuration 3."""
        baseline = self.by_key("3-2variant-address")
        target = self.by_key("4-2variant-uid")
        if saturated:
            return percent_change(baseline.saturated.throughput_kbps, target.saturated.throughput_kbps)
        return percent_change(baseline.unsaturated.throughput_kbps, target.unsaturated.throughput_kbps)

    def shape_holds(self) -> dict[str, bool]:
        """The qualitative claims of Table 3, checked against our numbers."""
        return {
            "transformation alone is cheap (config 2 within 5% of config 1, saturated)": abs(
                self.overhead_vs_baseline("2-transformed", saturated=True)
            )
            < 5.0,
            "2-variant saturated throughput roughly halves (40-65% drop)": -65.0
            < self.overhead_vs_baseline("3-2variant-address", saturated=True)
            < -40.0,
            "2-variant unsaturated penalty is modest (< 25% drop)": -25.0
            < self.overhead_vs_baseline("3-2variant-address", saturated=False)
            < 0.0,
            "UID variation adds < 10% on top of the 2-variant baseline (saturated)": -10.0
            < self.uid_overhead_vs_2variant(saturated=True)
            <= 0.0,
        }

    def to_report(self) -> ExperimentReport:
        """The reproduced table plus paper comparison as a shared report."""
        rows = []
        for configuration in self.configurations:
            paper = PAPER_TABLE3[configuration.key]
            rows.append(
                (
                    configuration.description,
                    f"{configuration.unsaturated.throughput_kbps:.0f}",
                    f"{configuration.unsaturated.latency_ms:.2f}",
                    f"{configuration.saturated.throughput_kbps:.0f}",
                    f"{configuration.saturated.latency_ms:.2f}",
                    f"{paper['unsaturated'][0]:.0f}/{paper['saturated'][0]:.0f}",
                )
            )
        table = ReportTable(
            title="Table 3. Performance Results (virtual-time model)",
            headers=(
                "Configuration",
                "Unsat KB/s",
                "Unsat ms",
                "Sat KB/s",
                "Sat ms",
                "Paper KB/s (unsat/sat)",
            ),
            rows=tuple(rows),
        )
        overheads = ReportKeyValues(
            title="Relative overheads (throughput vs configuration 1)",
            pairs=(
                (
                    "config2 (unsat / sat)",
                    f"{self.overhead_vs_baseline('2-transformed', saturated=False):+.1f}% / "
                    f"{self.overhead_vs_baseline('2-transformed', saturated=True):+.1f}%",
                ),
                (
                    "config3 (unsat / sat)",
                    f"{self.overhead_vs_baseline('3-2variant-address', saturated=False):+.1f}% / "
                    f"{self.overhead_vs_baseline('3-2variant-address', saturated=True):+.1f}%",
                ),
                (
                    "config4 vs config3 (unsat / sat)",
                    f"{self.uid_overhead_vs_2variant(saturated=False):+.1f}% / "
                    f"{self.uid_overhead_vs_2variant(saturated=True):+.1f}%",
                ),
            ),
        )
        telemetry = {
            f"{configuration.key}_requests": configuration.measurement.requests_completed
            for configuration in self.configurations
        }
        return ExperimentReport(
            title="Table 3: performance of the four configurations",
            sections=(table, overheads),
            claims=self.shape_holds(),
            telemetry=telemetry,
            result=self,
        )


def run(*, requests: int = 40) -> Table3Result:
    """Run all four configurations and model both load levels."""
    model = PerformanceModel()
    base_workload = WebBenchWorkload(
        total_requests=requests,
        client_engines=UNSATURATED_WORKLOAD.client_engines,
        client_machines=UNSATURATED_WORKLOAD.client_machines,
    )
    saturated_clients = SATURATED_WORKLOAD.concurrent_clients

    measurements: list[tuple[str, WorkloadMeasurement]] = []
    measurements.append(
        ("1-unmodified", drive_standalone(base_workload, transformed=False, configuration="1-unmodified"))
    )
    measurements.append(
        ("2-transformed", drive_standalone(base_workload, transformed=True, configuration="2-transformed"))
    )
    # The two redundant configurations run concurrently on the engine; each
    # owns its host, so the interleaving leaves the measurements untouched.
    (m3, _), (m4, _) = drive_nvariant_many(
        [
            (base_workload, ADDRESS_PARTITIONING_SPEC.with_name("3-2variant-address")),
            (base_workload, ADDRESS_UID_SPEC.with_name("4-2variant-uid")),
        ]
    )
    measurements.append(("3-2variant-address", m3))
    measurements.append(("4-2variant-uid", m4))

    configurations = []
    for key, measurement in measurements:
        configurations.append(
            ConfigurationResult(
                key=key,
                description=CONFIGURATION_DESCRIPTIONS[key],
                measurement=measurement,
                unsaturated=model.unsaturated(measurement),
                saturated=model.saturated(measurement, clients=saturated_clients),
            )
        )
    return Table3Result(configurations=configurations)
