"""Reexpression functions and their algebra.

Data diversity (Section 2 of the paper) builds each variant from a
*reexpression function* ``R_i`` and its inverse ``R_i^-1``.  Two properties
carry the entire security argument:

* **inverse property** -- ``∀x: R_i^-1(R_i(x)) = x`` -- needed for normal
  equivalence: a correctly transformed variant behaves like the original
  program on benign inputs.
* **disjointedness property** -- ``∀x: R_0^-1(x) ≠ R_1^-1(x)`` -- needed for
  detection: an attacker-injected concrete value decodes to *different*
  semantic values in the two variants, so the monitor sees a divergence the
  moment the value is used.

:class:`ReexpressionFunction` packages a forward/inverse pair with a domain
description; the module-level helpers check the two properties over samples
or exhaustively over small domains, and are reused by the Table 1 benchmark
and the hypothesis property tests.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Sequence


@dataclasses.dataclass(frozen=True)
class ReexpressionFunction:
    """A named reexpression function with its inverse.

    ``forward`` maps original (semantic) values to the variant's concrete
    representation; ``inverse`` maps concrete representations back.  The
    ``domain`` string documents the target data type from Table 1 (addresses,
    instructions, UIDs, ...), and ``formula`` is the human-readable formula
    printed in reproduction of that table.
    """

    name: str
    forward: Callable[[int], int]
    inverse: Callable[[int], int]
    domain: str = "integer"
    formula: str = ""
    inverse_formula: str = ""

    def __call__(self, value: int) -> int:
        """Apply the forward reexpression."""
        return self.forward(value)

    def invert(self, value: int) -> int:
        """Apply the inverse reexpression."""
        return self.inverse(value)

    def round_trips(self, value: int) -> bool:
        """True when the inverse property holds for *value*."""
        return self.inverse(self.forward(value)) == value


def identity_reexpression(domain: str = "integer") -> ReexpressionFunction:
    """The identity reexpression used for variant 0 in every paper variation."""
    return ReexpressionFunction(
        name="identity",
        forward=lambda value: value,
        inverse=lambda value: value,
        domain=domain,
        formula="R(x) = x",
        inverse_formula="R^-1(x) = x",
    )


def xor_reexpression(mask: int, domain: str = "uid") -> ReexpressionFunction:
    """XOR-with-constant reexpression (self-inverse), e.g. the paper's R_1."""
    return ReexpressionFunction(
        name=f"xor-0x{mask:08X}",
        forward=lambda value: value ^ mask,
        inverse=lambda value: value ^ mask,
        domain=domain,
        formula=f"R(x) = x XOR 0x{mask:08X}",
        inverse_formula=f"R^-1(x) = x XOR 0x{mask:08X}",
    )


def offset_reexpression(offset: int, domain: str = "address") -> ReexpressionFunction:
    """Additive-offset reexpression mod 2**32, e.g. partitioning's ``a + 0x80000000``."""
    return ReexpressionFunction(
        name=f"offset-0x{offset:08X}",
        forward=lambda value: (value + offset) % (1 << 32),
        inverse=lambda value: (value - offset) % (1 << 32),
        domain=domain,
        formula=f"R(a) = a + 0x{offset:08X}",
        inverse_formula=f"R^-1(a) = a - 0x{offset:08X}",
    )


# ---------------------------------------------------------------------------
# Property checks (Sections 2.2 and 2.3)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PropertyReport:
    """Outcome of checking a reexpression property over a set of samples."""

    property_name: str
    holds: bool
    samples_checked: int
    counterexample: int | None = None

    def describe(self) -> str:
        """One-line human-readable summary."""
        status = "holds" if self.holds else f"FAILS at 0x{self.counterexample:08X}"
        return f"{self.property_name}: {status} ({self.samples_checked} samples)"


def check_inverse_property(
    function: ReexpressionFunction, samples: Iterable[int]
) -> PropertyReport:
    """Check ``R^-1(R(x)) = x`` over *samples*."""
    count = 0
    for value in samples:
        count += 1
        if not function.round_trips(value):
            return PropertyReport("inverse", False, count, counterexample=value)
    return PropertyReport("inverse", True, count)


def check_disjointness(
    inverses: Sequence[ReexpressionFunction], samples: Iterable[int]
) -> PropertyReport:
    """Check ``∀x: R_0^-1(x) ≠ R_1^-1(x) ≠ ...`` pairwise over *samples*.

    The paper states the property for two variants; we check all pairs so
    systems with more than two variants get the same guarantee.
    """
    count = 0
    for value in samples:
        count += 1
        decoded = [function.invert(value) for function in inverses]
        if len(set(decoded)) != len(decoded):
            return PropertyReport("disjointedness", False, count, counterexample=value)
    return PropertyReport("disjointedness", True, count)


def check_partial_overwrite_resilience(
    inverses: Sequence[ReexpressionFunction],
    originals: Sequence[int],
    *,
    byte_count: int,
    injected: int,
) -> bool:
    """Decide whether a low-*byte_count*-byte overwrite is detected.

    The attacker overwrites the low bytes of the targeted 32-bit word with
    the same *injected* bytes in every variant, leaving each variant's
    original high bytes in place (Section 2.3).  Detection happens when the
    decoded values differ afterwards.  ``originals`` are the per-variant
    concrete values before the attack (i.e. ``R_i(semantic value)``).
    """
    low_mask = (1 << (8 * byte_count)) - 1
    keep_mask = 0xFFFFFFFF ^ low_mask
    decoded = []
    for original, function in zip(originals, inverses):
        corrupted = (original & keep_mask) | (injected & low_mask)
        decoded.append(function.invert(corrupted))
    return len(set(decoded)) > 1


def sample_domain(bits: int = 32, *, count: int = 4096) -> list[int]:
    """Deterministic, well-spread sample of a *bits*-wide unsigned domain.

    Uses a Weyl-style sequence (golden-ratio stride) so samples cover low,
    high and middle values without requiring randomness.  The Table 1
    benchmark and the property tests share this sampler.
    """
    modulus = 1 << bits
    samples = [0, 1, modulus - 1, modulus // 2, modulus // 2 - 1]
    value = 0
    for _ in range(count):
        value = (value + 2654435761) % modulus
        samples.append(value)
    return samples
