"""Address-space partitioning variations (rows 1 and 2 of Table 1), N-ary.

The original N-variant systems paper partitions the address space: variant 0
runs entirely at addresses with the high bit clear, variant 1 at addresses
with the high bit set (``R_1(a) = a + 0x80000000``).  An attack that injects
a complete absolute address can match at most one variant's partition; every
other variant faults when it dereferences the injected pointer and the
monitor reports the attack.

Nothing in that argument is specific to N=2.  One class,
:class:`AddressPartitioning`, wraps a
:class:`~repro.memory.partition.RegionScheme`: its layout decides how the
32-bit space is carved, and the
:class:`~repro.core.variations.base.VariationStack` builds each variant's
address space from it.  Each factory here only chooses the layout, and the
registry row names the result:

* ``AddressPartitioning(num_variants)`` -- the high bit at N=2 (Cox et al.),
  the top ``ceil(log2 N)`` bits beyond (``address``);
* :func:`address_orbit` -- the top-bits orbit at any N;
* :func:`address_extended` -- Bruschi et al.'s *extended* partitioning,
  which adds a further per-variant offset so that even the low-order bytes
  of equivalent addresses differ across variants, restoring (probabilistic)
  protection against partial pointer overwrites that leave the high byte
  intact.  The detection matrix benchmark exercises the difference;
* :func:`address_keyed` -- a secret slice assignment (and slide), redrawn
  by :meth:`~repro.core.variations.base.Variation.rekey`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.reexpression import ReexpressionFunction
from repro.core.variations.base import Variation
from repro.memory.partition import (
    KeyedRegionScheme,
    PartitionScheme,
    RegionScheme,
    extended_orbit_scheme,
    high_bit_scheme,
    orbit_scheme,
)


class AddressPartitioning(Variation):
    """N variants with pairwise-disjoint (scheme-carved) address spaces.

    With the defaults this is the paper's 2-variant high-bit split; any
    other ``num_variants`` selects the top-bits orbit scheme, and an
    explicit *scheme* overrides the choice entirely (it must carve regions
    and agree on the partition count).  It diversifies address spaces, not
    system calls, so it keeps the identity hooks and empty footprints.
    """

    name = "address-partitioning"
    target_type = "address"
    reference = "Cox et al., USENIX Security 2006 [16]"

    def __init__(
        self, num_variants: int = 2, *, scheme: Optional[PartitionScheme] = None
    ) -> None:
        if scheme is None:
            scheme = high_bit_scheme() if num_variants == 2 else orbit_scheme(num_variants)
        if not isinstance(scheme, RegionScheme):
            raise ValueError(
                f"address partitioning needs a region-carving scheme, "
                f"got {scheme.kind!r}"
            )
        if scheme.num_partitions != num_variants:
            raise ValueError(
                f"scheme {scheme.kind!r} carves {scheme.num_partitions} partitions, "
                f"variation wants {num_variants}"
            )
        self.scheme = scheme
        self.num_variants = num_variants

    def reexpression(self, index: int) -> ReexpressionFunction:
        """``R_i(a) = a + base_of(i)`` (identity for partition 0)."""
        self._check_index(index)
        return self.scheme.reexpression(index, domain="address")


def address_orbit(num_variants: int = 3) -> AddressPartitioning:
    """Variant *i* owns the *i*-th top-``ceil(log2 N)``-bits slice, for any N >= 2.

    The address-side sibling of the UID orbit: any injected absolute pointer
    is valid in at most one of the N variants, and every sibling's fault is
    the detection event.  The campaign layer sweeps variant count through it.
    """
    return AddressPartitioning(num_variants, scheme=orbit_scheme(num_variants))


def address_extended(offset: int = 0x00010000, num_variants: int = 2) -> AddressPartitioning:
    """Partitioning plus a per-variant offset (Bruschi et al. [9]), N-ary.

    The extra offset makes even the low bytes of corresponding addresses
    differ between variants, so a partial (e.g. 3-low-byte) pointer overwrite
    is also detected with high probability.
    """
    return AddressPartitioning(
        num_variants, scheme=extended_orbit_scheme(num_variants, offset=offset)
    )


def address_keyed(
    num_variants: int = 2,
    *,
    key_bits: int = 8,
    seed: Optional[int] = None,
    slide: bool = True,
) -> AddressPartitioning:
    """A *secret*, rotatable layout (keyed ASLR).

    Each variant's slice assignment and, with *slide*, intra-slice slide
    come from a :class:`~repro.memory.partition.KeyedRegionScheme` keyed by
    ``key_bits`` of entropy (pinned by *seed*).  Against the public layouts
    an attacker can aim an injected pointer into a known partition; here
    every probe is a guess in a ``2**key_bits`` space, and a guess that
    lands in *some* variant's partition -- but not everyone's -- diverges
    and alarms, which is the probes-to-first-alarm game the ``entropy``
    experiment measures.  Keys rotate on session restart, through
    :meth:`~repro.core.variations.base.Variation.rekey`; re-expressions and
    address spaces are derived from the scheme on demand, so the scheme's
    own rotation is the whole job.
    """
    scheme = KeyedRegionScheme(num_variants, key_bits=key_bits, seed=seed, slide=slide)
    return AddressPartitioning(num_variants, scheme=scheme)
