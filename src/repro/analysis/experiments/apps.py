"""Experiment: the second-workload generalisation (the same matrix on each app).

The paper's detection argument never mentions HTTP: the guarantees rest on
data diversity at the syscall boundary, so they must survive swapping the
protected application.  This experiment makes that claim measurable.  Every
standard attack class (the Table 2/3 suites) runs against both registered
serving apps -- the mini-httpd and the mini-ftpd -- under the full stacked
diversity configuration (``fd-orbit`` + ``address-orbit`` + ``uid-orbit``)
at N in {2, 3}, on one campaign backend (the in-process virtual-time
scheduler by default, or the forked OS worker pool), and the resulting
matrices are checked two ways:

* **the guarantee**: every in-guarantee attack is detected at both variant
  counts, the bit-granular corruptions stay (as documented) outside it, and
  the unprotected single process is still compromised;
* **app independence**: the httpd and ftpd matrices agree cell for cell.

Backend independence needs no rerun here: every attack cell is the same
picklable job on either backend, and ``tests/test_job_parity.py`` checks
that both backends give each one the same result.

A benign workload sweep (the app-keyed webbench client, on each app)
rides along to show both servers complete their request mixes alarm-free
under the same stacked diversity, and the monitor's per-syscall
``alarm_breakdown`` for the attack cells is surfaced as report telemetry,
so ``--json`` consumers see *which* interposed syscall raised each alarm.
"""

from __future__ import annotations

import dataclasses

from repro.api.campaign import CampaignReport, prepare_attack, run_campaign, standard_attacks
from repro.api.experiments import ExperimentReport, ReportTable
from repro.api.spec import SINGLE_PROCESS_SPEC, SystemSpec
from repro.attacks.outcomes import OutcomeKind

#: The apps the generalisation claim quantifies over.
APP_NAMES = ("httpd", "ftpd")

#: The variant counts the stacked diversity configuration is swept at.
VARIANT_COUNTS = (2, 3)

#: Attacks whose detection the paper explicitly does NOT promise (the same
#: bit-granular exclusions the detection-matrix experiment documents).
OUTSIDE_GUARANTEE = frozenset({"low-bit-flip", "high-bit-flip"})


def diversity_spec(num_variants: int) -> SystemSpec:
    """The fully stacked diversity system at N variants.

    All three re-expression families at once -- file descriptors, addresses
    and UIDs each partitioned into per-variant orbits -- which is the
    configuration the cross-app claims are stated against.
    """
    return SystemSpec(
        name=f"{num_variants}-variant-fd+address+uid-orbit",
        num_variants=num_variants,
        variations=("fd-orbit", "address-orbit", "uid-orbit"),
        transformed=True,
    )


def _alarm_breakdown(app: str, spec: SystemSpec) -> dict[str, int]:
    """Per-syscall alarm counts over every standard attack against *spec*."""
    breakdown: dict[str, int] = {}
    for attack in standard_attacks(app):
        cell = prepare_attack(attack, spec)
        session = cell.start()
        while not session.done:
            session.step()
        cell.finish(session)
        for name, count in session.result().monitor.stats.alarm_breakdown.items():
            breakdown[name] = breakdown.get(name, 0) + count
    return dict(sorted(breakdown.items()))


@dataclasses.dataclass
class AppsResult:
    """Both apps' matrices, the workload sweep, the claims."""

    backend: str
    specs: tuple[SystemSpec, ...]
    #: ``app -> CampaignReport`` for the full attack suite.
    reports: dict[str, CampaignReport]
    #: ``app -> WorkloadMeasurement list`` (standalone, then each N).
    measurements: dict[str, list]
    #: Per-syscall alarm counts, summed over apps, at the N=2 stacked system.
    alarm_breakdown: dict[str, int]

    def matrix(self, app: str) -> dict[str, dict[str, str]]:
        """``{attack: {configuration: outcome}}`` for one app."""
        return self.reports[app].matrix()

    # -- claims ------------------------------------------------------------------

    def claim_results(self) -> dict[str, bool]:
        """The generalisation claims, checked against every matrix."""
        claims: dict[str, bool] = {}
        protected = [spec.name for spec in self.specs if spec.redundant]
        backend = self.backend
        for app in APP_NAMES:
            report = self.reports[app]
            single = [
                o
                for o in report.by_configuration(SINGLE_PROCESS_SPEC.name)
                if o.attack not in OUTSIDE_GUARANTEE
            ]
            guaranteed = [
                o
                for o in report.outcomes
                if o.configuration in protected and o.attack not in OUTSIDE_GUARANTEE
            ]
            outside = [
                o
                for o in report.outcomes
                if o.configuration in protected and o.attack in OUTSIDE_GUARANTEE
            ]
            claims[
                f"{app}/{backend}: attacks compromise the unprotected server"
            ] = any(o.kind is OutcomeKind.UNDETECTED_COMPROMISE for o in single)
            claims[
                f"{app}/{backend}: every in-guarantee attack is detected at "
                f"N in {{{', '.join(str(s.num_variants) for s in self.specs if s.redundant)}}} "
                "under the fd+address+uid stack"
            ] = bool(guaranteed) and all(
                o.kind is OutcomeKind.DETECTED for o in guaranteed
            )
            claims[
                f"{app}/{backend}: bit-granular corruptions stay outside the guarantee"
            ] = all(o.kind is not OutcomeKind.DETECTED for o in outside)
        claims[
            f"{backend}: the detection matrix is app-independent "
            "(httpd and ftpd agree cell for cell)"
        ] = self.matrix("httpd") == self.matrix("ftpd")
        for app, measurements in self.measurements.items():
            claims[
                f"{app}: the benign workload completes alarm-free under the stacked diversity"
            ] = bool(measurements) and all(m.completed_ok for m in measurements)
        return claims

    # -- report ------------------------------------------------------------------

    def to_report(self) -> ExperimentReport:
        """The matrices, the workload sweep and the claims as a shared report."""
        sections = []
        configurations = [spec.name for spec in self.specs]
        for app in APP_NAMES:
            sections.append(
                self.reports[app].matrix_table(
                    f"Detection matrix on {app} ({self.backend} backend)",
                    configurations,
                    attack_header=f"{app} attack",
                )
            )
        sections.append(
            ReportTable(
                title="Benign workload sweep under the stacked diversity",
                headers=(
                    "app",
                    "configuration",
                    "completed",
                    "alarms",
                    "syscalls/request",
                    "monitor checks",
                ),
                rows=tuple(
                    (
                        app,
                        m.configuration,
                        f"{m.requests_completed}/{m.requests_sent}",
                        m.alarms,
                        f"{m.per_request_syscalls():.1f}",
                        m.monitor_checks,
                    )
                    for app, measurements in self.measurements.items()
                    for m in measurements
                ),
            )
        )
        telemetry: dict = {
            "campaign_cells": sum(len(report.outcomes) for report in self.reports.values()),
            "alarm_breakdown": dict(self.alarm_breakdown),
        }
        if self.backend == "virtual":
            telemetry["campaign_virtual_elapsed"] = self.reports["ftpd"].execution.virtual_elapsed
        return ExperimentReport(
            title="Second workload generalisation: detection and throughput, apps x backends",
            sections=tuple(sections),
            claims=self.claim_results(),
            telemetry=telemetry,
            result=self,
        )


def run(*, backend: str = "virtual", workers: int = 4, requests: int = 16) -> AppsResult:
    """Run the cross-app matrices, the workload sweep and the alarm telemetry.

    ``backend`` selects the campaign execution tier (the virtual-time
    scheduler or the forked worker pool), ``workers`` its worker count, and
    ``requests`` the benign request count per workload configuration.
    """
    from repro.apps.clients.webbench import WebBenchWorkload, drive_nvariant, drive_standalone

    specs = (SINGLE_PROCESS_SPEC, *(diversity_spec(n) for n in VARIANT_COUNTS))
    reports = {
        app: run_campaign(specs, standard_attacks(app), backend=backend, workers=workers)
        for app in APP_NAMES
    }

    measurements: dict[str, list] = {}
    for app in APP_NAMES:
        workload = WebBenchWorkload(total_requests=requests, app=app)
        measurements[app] = [drive_standalone(workload, configuration=f"{app}-standalone")]
        for n in VARIANT_COUNTS:
            measurement, _ = drive_nvariant(workload, diversity_spec(n))
            measurements[app].append(measurement)

    breakdown: dict[str, int] = {}
    for app in APP_NAMES:
        for name, count in _alarm_breakdown(app, diversity_spec(2)).items():
            breakdown[name] = breakdown.get(name, 0) + count

    return AppsResult(
        backend=backend,
        specs=specs,
        reports=reports,
        measurements=measurements,
        alarm_breakdown=dict(sorted(breakdown.items())),
    )
