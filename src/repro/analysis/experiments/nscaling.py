"""Experiment: N-scaling sweep of both orbit families (detection + cost).

The paper deploys two variants; the orbit generalisation (PR 3 for UIDs,
PR 5 for addresses) makes variant count a free axis.  This experiment sweeps
``uid_orbit_spec(n)`` and ``address_orbit_spec(n)`` over a range of N and
reports, per N:

* the detection matrix outcome of every standard attack in the family
  (the security guarantee must hold at every N -- more variants can only
  add observers, never remove one);
* the measured workload cost of running N variants in lockstep (total
  syscalls, per-request syscalls) and the modelled saturated throughput,
  which is the price the extra redundancy pays.

Campaigns run through the engine scheduler (one campaign per family, all N
configurations as cells) and the benign workloads run concurrently on one
engine via :func:`~repro.apps.clients.webbench.drive_nvariant_many`, so the
sweep costs one pass, not one run per N.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.experiments.detection import OUTSIDE_GUARANTEE
from repro.analysis.perfmodel import PerformanceModel
from repro.api.campaign import CampaignReport, run_campaign
from repro.api.experiments import (
    ExperimentParameterError,
    ExperimentReport,
    ReportKeyValues,
    ReportTable,
)
from repro.api.spec import SystemSpec, address_orbit_spec, uid_orbit_spec
from repro.apps.clients.webbench import WebBenchWorkload, WorkloadMeasurement, drive_nvariant_many
from repro.attacks.outcomes import OutcomeKind


@dataclasses.dataclass
class NScalingPoint:
    """One N of the sweep: detection outcomes and workload cost."""

    num_variants: int
    uid_spec: SystemSpec
    address_spec: SystemSpec
    uid_outcomes: list
    address_outcomes: list
    uid_measurement: WorkloadMeasurement
    address_measurement: WorkloadMeasurement
    saturated_throughput: float

    @property
    def uid_guarantee_holds(self) -> bool:
        """Every in-guarantee UID attack detected at this N."""
        guaranteed = [o for o in self.uid_outcomes if o.attack not in OUTSIDE_GUARANTEE]
        return bool(guaranteed) and all(
            o.kind is OutcomeKind.DETECTED for o in guaranteed
        )

    @property
    def address_guarantee_holds(self) -> bool:
        """Every address injection detected at this N."""
        return bool(self.address_outcomes) and all(
            o.detected for o in self.address_outcomes
        )

    @property
    def lockstep_syscalls(self) -> int:
        """Total syscalls of the benign workload across both family runs."""
        return self.uid_measurement.syscalls_total + self.address_measurement.syscalls_total


@dataclasses.dataclass
class NScalingResult:
    """The whole sweep plus the claims it must satisfy."""

    points: list[NScalingPoint]
    uid_report: CampaignReport
    address_report: CampaignReport

    def claim_results(self) -> dict[str, bool]:
        """Detection must survive every N; cost must grow with N."""
        syscall_costs = [p.lockstep_syscalls for p in self.points]
        throughputs = [p.saturated_throughput for p in self.points]
        return {
            "every N in the sweep detects all in-guarantee UID attacks": all(
                p.uid_guarantee_holds for p in self.points
            ),
            "every N in the sweep detects every address injection": all(
                p.address_guarantee_holds for p in self.points
            ),
            "benign workloads stay clean at every N (no false alarms)": all(
                p.uid_measurement.completed_ok and p.address_measurement.completed_ok
                for p in self.points
            ),
            "lockstep syscall cost grows with N": all(
                earlier < later for earlier, later in zip(syscall_costs, syscall_costs[1:])
            ),
            "modelled saturated throughput never improves as N grows": all(
                earlier >= later for earlier, later in zip(throughputs, throughputs[1:])
            ),
        }

    def to_report(self) -> ExperimentReport:
        """The sweep as a shared experiment report."""
        rows = []
        for point in self.points:
            rows.append(
                (
                    str(point.num_variants),
                    "yes" if point.uid_guarantee_holds else "NO",
                    "yes" if point.address_guarantee_holds else "NO",
                    str(point.lockstep_syscalls),
                    f"{point.uid_measurement.per_request_syscalls():.1f}",
                    f"{point.saturated_throughput:.0f}",
                )
            )
        table = ReportTable(
            title="N-scaling: detection and cost of both orbit families vs variant count",
            headers=(
                "N",
                "UID guarantee",
                "address guarantee",
                "benign syscalls",
                "syscalls/request (uid)",
                "saturated kbps (model)",
            ),
            rows=tuple(rows),
        )
        summary = ReportKeyValues(
            title="Sweep",
            pairs=(
                ("variant counts", ", ".join(str(p.num_variants) for p in self.points)),
                ("uid campaign cells", str(len(self.uid_report.outcomes))),
                ("address campaign cells", str(len(self.address_report.outcomes))),
            ),
        )
        telemetry = {}
        if self.uid_report.execution is not None:
            telemetry["campaign_parallelism"] = self.uid_report.execution.parallelism
        return ExperimentReport(
            title="N-scaling sweep of the orbit re-expression families",
            sections=(table, summary),
            claims=self.claim_results(),
            telemetry=telemetry,
            result=self,
        )


def run(
    *,
    min_variants: int = 2,
    max_variants: int = 6,
    requests: int = 12,
    workers: int = 4,
) -> NScalingResult:
    """Sweep both orbit families over ``[min_variants, max_variants]``."""
    from repro.attacks.memory_attacks import standard_address_attacks
    from repro.attacks.uid_attacks import standard_uid_attacks

    if not 2 <= min_variants <= max_variants:
        raise ExperimentParameterError(
            "nscaling",
            f"need 2 <= min_variants <= max_variants, got {min_variants}..{max_variants}",
        )
    counts = list(range(min_variants, max_variants + 1))
    uid_specs = [uid_orbit_spec(n) for n in counts]
    address_specs = [address_orbit_spec(n) for n in counts]

    uid_report = run_campaign(uid_specs, standard_uid_attacks(), workers=workers)
    address_report = run_campaign(
        address_specs, standard_address_attacks(), workers=workers
    )

    workload = WebBenchWorkload(total_requests=requests)
    jobs = [(workload, spec) for spec in uid_specs] + [
        (workload, spec) for spec in address_specs
    ]
    measurements = [measurement for measurement, _ in drive_nvariant_many(jobs)]
    uid_measurements = measurements[: len(counts)]
    address_measurements = measurements[len(counts):]

    model = PerformanceModel()
    points = []
    for index, n in enumerate(counts):
        address_measurement = address_measurements[index]
        points.append(
            NScalingPoint(
                num_variants=n,
                uid_spec=uid_specs[index],
                address_spec=address_specs[index],
                uid_outcomes=uid_report.by_configuration(uid_specs[index].name),
                address_outcomes=address_report.by_configuration(address_specs[index].name),
                uid_measurement=uid_measurements[index],
                address_measurement=address_measurement,
                saturated_throughput=model.saturated(address_measurement).throughput_kbps,
            )
        )
    return NScalingResult(points=points, uid_report=uid_report, address_report=address_report)
