"""Change accounting for the source transformation (Section 4 of the paper).

The paper reports the manual effort of transforming Apache as a count of
changes by category: 15 reexpressed constants, 16 ``uid_value`` insertions,
22 comparison rewrites and 20 ``cond_chk`` insertions (73 in total).  The
automatic transformer records every change it makes in the same categories so
the Section 4 experiment can print the equivalent table for the mini-httpd.
"""

from __future__ import annotations

import dataclasses
import enum


class ChangeCategory(enum.Enum):
    """The change categories of Section 4, plus the implicit-comparison step."""

    CONSTANT = "constant-reexpression"
    UID_VALUE = "uid_value-exposure"
    COMPARISON = "comparison-rewrite"
    COND_CHK = "cond_chk-wrapping"
    IMPLICIT_COMPARISON = "implicit-comparison-expansion"


#: The paper's Apache numbers, used for side-by-side reporting.
PAPER_APACHE_COUNTS: dict[ChangeCategory, int] = {
    ChangeCategory.CONSTANT: 15,
    ChangeCategory.UID_VALUE: 16,
    ChangeCategory.COMPARISON: 22,
    ChangeCategory.COND_CHK: 20,
}

#: Total changes the paper reports for Apache.
PAPER_APACHE_TOTAL = 73


@dataclasses.dataclass(frozen=True)
class ChangeRecord:
    """One transformation applied at one source location."""

    category: ChangeCategory
    line: int
    description: str


@dataclasses.dataclass
class TransformationReport:
    """All changes applied while producing variant 1 (variant 0 is the source)."""

    changes: list[ChangeRecord] = dataclasses.field(default_factory=list)

    def record(self, category: ChangeCategory, line: int, description: str) -> None:
        """Record one applied change."""
        self.changes.append(ChangeRecord(category=category, line=line, description=description))

    def count(self, category: ChangeCategory) -> int:
        """Number of changes in *category*."""
        return sum(1 for change in self.changes if change.category is category)

    def counts(self) -> dict[ChangeCategory, int]:
        """Counts per category (categories with zero changes included)."""
        return {category: self.count(category) for category in ChangeCategory}

    @property
    def total(self) -> int:
        """Total number of changes applied."""
        return len(self.changes)

    @property
    def total_paper_categories(self) -> int:
        """Total counting only the four categories the paper tabulates."""
        return sum(self.count(category) for category in PAPER_APACHE_COUNTS)

    def comparison_rows(self) -> list[tuple[str, int, int]]:
        """Rows ``(category, ours, paper)`` for the Section 4 table."""
        rows = []
        for category, paper_count in PAPER_APACHE_COUNTS.items():
            rows.append((category.value, self.count(category), paper_count))
        rows.append(("total", self.total_paper_categories, PAPER_APACHE_TOTAL))
        return rows

    def describe(self) -> str:
        """Multi-line summary of the applied changes."""
        lines = ["transformation report for variant 1:"]
        for category, count in self.counts().items():
            lines.append(f"  {category.value:34s} {count}")
        lines.append(f"  {'total':34s} {self.total}")
        return "\n".join(lines)
