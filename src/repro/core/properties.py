"""Checkers for the paper's framework-level properties.

Section 2.2 (normal equivalence) and Section 2.3 (detection) are the two
obligations a variation designer must discharge.  The reexpression-level
pieces (inverse property, disjointedness) live in
:mod:`repro.core.reexpression`; :func:`check_variation_reexpression` applies
them to one variation.  :func:`check_normal_equivalence` runs a benign
workload on an actual N-variant system and asserts that no alarm fires and
that the variants produce identical observable behaviour; it returns a
structured verdict rather than raising.  Detection is judged per attack
cell: :func:`repro.api.campaign.run_attack` returns an outcome whose
``is_security_failure`` is the property's violation.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

from repro.core.nvariant import NVariantResult
from repro.core.reexpression import (
    PropertyReport,
    check_disjointness,
    check_inverse_property,
    sample_domain,
)
from repro.core.variations.base import Variation


@dataclasses.dataclass(frozen=True)
class EquivalenceVerdict:
    """Result of a normal-equivalence check."""

    holds: bool
    reason: str
    alarms: int

    def describe(self) -> str:
        """One-line summary."""
        status = "normal equivalence holds" if self.holds else "normal equivalence VIOLATED"
        return f"{status}: {self.reason}"


def check_variation_reexpression(
    variation: Variation, samples: Iterable[int] | None = None
) -> list[PropertyReport]:
    """Check the inverse property of every ``R_i`` and pairwise disjointedness.

    This is the per-variation portion of Table 1's implicit claims.  Note
    that variant 0's inverse being the identity means disjointedness is a
    statement about variant 1's inverse never being the identity on any
    value.
    """
    values = list(samples) if samples is not None else sample_domain(bits=31)
    functions = variation.reexpressions()
    reports = [check_inverse_property(function, values) for function in functions]
    reports.append(check_disjointness(functions, values))
    return reports


def check_normal_equivalence(run_benign: Callable[[], NVariantResult]) -> EquivalenceVerdict:
    """Run a benign workload and verify the variants stayed equivalent.

    *run_benign* builds and runs an N-variant system on non-malicious input.
    Normal equivalence also requires that the externally visible behaviour
    matches what the unmodified program would produce, but at this level we
    check internal consistency: no alarms and clean exits.
    """
    result = run_benign()
    if result.alarms:
        return EquivalenceVerdict(
            holds=False,
            reason=f"monitor raised {len(result.alarms)} alarm(s) on benign input: "
            f"{result.first_alarm().describe()}",
            alarms=len(result.alarms),
        )
    if not all(variant.exited_normally for variant in result.variants):
        faults = [v.fault for v in result.variants if v.fault]
        return EquivalenceVerdict(
            holds=False,
            reason=f"variant faulted on benign input: {faults}",
            alarms=0,
        )
    return EquivalenceVerdict(holds=True, reason="no alarms, all variants exited cleanly", alarms=0)

