"""Experiment: Figure 1 (two-variant address-space partitioning).

Figure 1 of the paper illustrates the framework: untrusted input is
replicated to two variants with disjoint address spaces; normal inputs are
served identically, while an attack that injects an absolute memory address
is necessarily invalid in at least one of the variants, whose memory-access
fault the monitor reports.  This experiment runs exactly that scenario on the mini-httpd: a
benign request must produce identical responses and no alarm, and an
absolute-address-injection attack must be detected via a variant fault.
"""

from __future__ import annotations

import dataclasses

from repro.api.experiments import ExperimentReport, ReportKeyValues
from repro.api.campaign import run_attack
from repro.api.spec import ADDRESS_PARTITIONING_SPEC, SINGLE_PROCESS_SPEC
from repro.apps.clients.webbench import WebBenchWorkload, drive_nvariant
from repro.attacks.memory_attacks import standard_address_attacks
from repro.attacks.outcomes import AttackOutcome
from repro.core.properties import EquivalenceVerdict, check_normal_equivalence


@dataclasses.dataclass
class Figure1Result:
    """Benign equivalence plus attack outcomes for both deployments."""

    equivalence: EquivalenceVerdict
    benign_statuses: dict[int, int]
    single_outcomes: list[AttackOutcome]
    nvariant_outcomes: list[AttackOutcome]

    @property
    def reproduces_figure(self) -> bool:
        """Figure 1's claim: benign traffic equivalent, injections detected."""
        return self.equivalence.holds and all(o.detected for o in self.nvariant_outcomes)

    def to_report(self) -> ExperimentReport:
        """The scenario outcomes as a shared experiment report."""
        pairs = [
            ("normal equivalence on benign requests", self.equivalence.describe()),
            ("benign response statuses", dict(sorted(self.benign_statuses.items()))),
        ]
        for outcome in self.single_outcomes:
            pairs.append((f"single process vs {outcome.attack}", outcome.kind.value))
        for outcome in self.nvariant_outcomes:
            pairs.append(
                (
                    f"2-variant partitioned vs {outcome.attack}",
                    f"{outcome.kind.value} ({outcome.detail})",
                )
            )
        section = ReportKeyValues(
            title="Figure 1. Two-variant address partitioning",
            pairs=tuple((key, str(value)) for key, value in pairs),
        )
        claims = {
            "benign requests are served equivalently": self.equivalence.holds,
            "address injection succeeds against the single process": any(
                o.goal_reached for o in self.single_outcomes
            ),
            "every injection is detected under partitioning": all(
                o.detected for o in self.nvariant_outcomes
            ),
            "figure 1 claim reproduced": self.reproduces_figure,
        }
        return ExperimentReport(
            title="Figure 1: two-variant address partitioning",
            sections=(section,),
            claims=claims,
            result=self,
        )


def run(benign_requests: int = 8) -> Figure1Result:
    """Run the Figure 1 scenario."""
    workload = WebBenchWorkload(total_requests=benign_requests)

    def run_benign():
        _, result = drive_nvariant(
            workload, ADDRESS_PARTITIONING_SPEC.with_name("figure1-benign")
        )
        return result

    measurement, _ = drive_nvariant(
        WebBenchWorkload(total_requests=benign_requests),
        ADDRESS_PARTITIONING_SPEC.with_name("figure1-benign-measure"),
    )
    equivalence = check_normal_equivalence(run_benign)

    single_outcomes = []
    nvariant_outcomes = []
    for attack in standard_address_attacks():
        single_outcomes.append(run_attack(attack, SINGLE_PROCESS_SPEC))
        nvariant_outcomes.append(run_attack(attack, ADDRESS_PARTITIONING_SPEC))
    return Figure1Result(
        equivalence=equivalence,
        benign_statuses=measurement.status_counts,
        single_outcomes=single_outcomes,
        nvariant_outcomes=nvariant_outcomes,
    )
