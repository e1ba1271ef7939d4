"""Experiment: reproduce Table 1 (reexpression functions and their properties).

Regenerates the table of variations with their reexpression and inverse
functions, and verifies the two properties the paper's security argument
rests on for each variation: the inverse property (needed for normal
equivalence) and pairwise disjointedness of the inverse functions (needed for
detection).  For the UID variation the disjointedness check runs over the
valid uid_t domain (31-bit values), matching the paper's restriction.
"""

from __future__ import annotations

import dataclasses

from repro.api.experiments import ExperimentReport, ReportKeyValues, ReportTable
from repro.api.registry import registry
from repro.core.properties import check_variation_reexpression
from repro.core.reexpression import PropertyReport, sample_domain
from repro.core.variations.table1 import TABLE1_VARIATIONS


@dataclasses.dataclass
class Table1Row:
    """One variation's row plus its property-check results."""

    variation: str
    target_type: str
    reexpression: str
    inverse: str
    reference: str
    property_reports: list[PropertyReport]

    @property
    def all_properties_hold(self) -> bool:
        """True when every checked property holds for this variation."""
        return all(report.holds for report in self.property_reports)


@dataclasses.dataclass
class Table1Result:
    """The full reproduced table."""

    rows: list[Table1Row]

    def to_report(self) -> ExperimentReport:
        """The table plus property checks as a shared experiment report."""
        table = ReportTable(
            title="Table 1. Reexpression Functions",
            headers=("Variation", "Target Type", "Reexpression Functions", "Inverse Functions"),
            rows=tuple(
                (row.variation, row.target_type, row.reexpression, row.inverse)
                for row in self.rows
            ),
        )
        checks = ReportKeyValues(
            title="Property checks (inverse and disjointedness)",
            pairs=tuple(
                (row.variation, report.describe())
                for row in self.rows
                for report in row.property_reports
            ),
        )
        claims = {
            f"{row.variation} satisfies inverse and disjointedness": row.all_properties_hold
            for row in self.rows
        }
        return ExperimentReport(
            title="Table 1: reexpression functions and their properties",
            sections=(table, checks),
            claims=claims,
            result=self,
        )


def run(sample_count: int = 2048) -> Table1Result:
    """Run the Table 1 reproduction."""
    rows = []
    for variation in [registry.create(name) for name in TABLE1_VARIATIONS]:
        info = variation.table1_row()
        if variation.target_type == "uid":
            samples = sample_domain(bits=31, count=sample_count)
        elif variation.target_type == "address":
            samples = sample_domain(bits=32, count=sample_count)
        else:
            samples = sample_domain(bits=32, count=max(256, sample_count // 8))
        reports = check_variation_reexpression(variation, samples)
        rows.append(
            Table1Row(
                variation=info["variation"],
                target_type=info["target_type"],
                reexpression=info["reexpression"],
                inverse=info["inverse"],
                reference=info["reference"],
                property_reports=reports,
            )
        )
    return Table1Result(rows=rows)
