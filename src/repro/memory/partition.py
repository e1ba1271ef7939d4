"""N-ary partition schemes: the one re-expression-family abstraction.

The paper's two data-diversity families are instances of a single idea:
pick, for each of N variants, a re-expression of a value space such that a
concrete value an attacker injects identically into every variant cannot be
*valid* (or cannot *decode identically*) in all of them.

* **Address-space partitioning** carves the 32-bit address space into N
  disjoint regions; variant *i* only maps addresses inside region *i*, so an
  injected absolute pointer lies in at most one variant's region and every
  sibling segfaults on the dereference.
* **UID re-expression** gives variant *i* its own XOR mask; the same concrete
  ``uid_t`` decodes to N pairwise-different semantic users, so the monitor
  sees a divergence at first use.

A :class:`PartitionScheme` captures what both families share: a partition
count, per-variant ``translate``/``untranslate`` maps (the re-expression
``R_i`` and its inverse), and the two invariants the security argument
needs -- every ``translate``/``untranslate`` pair round-trips (normal
equivalence) and the inverses are pairwise disjoint (detection).

A region layout is data, not a class per kind: a :class:`RegionScheme` puts
partition *i* at ``(slices[i] << shift) + offsets[i]`` and adds ``base_of``
and ``partition_of`` with the placement invariant
``partition_of(translate(i, a)) == i`` for every in-capacity nominal ``a``.
The public layouts are constructors that pick the slices and offsets:

* :func:`high_bit_scheme` -- the paper's N=2 high-bit split
  (``R_1(a) = a + 0x80000000``, Cox et al. 2006);
* :func:`orbit_scheme` -- the N-ary generalisation: the top
  ``ceil(log2 N)`` bits select the partition;
* :func:`fd_orbit_scheme` -- the same layout over the file-descriptor
  value space;
* :func:`extended_orbit_scheme` -- Bruschi et al.'s offset-extended
  partitioning, N-ary: partition *i* is additionally slid by ``i * offset``
  so even the low bytes of corresponding addresses differ.

:class:`XorMaskScheme` is the UID family: per-variant XOR masks (pairwise
distinct, sign bit clear).  It carves no regions -- every concrete value is
representable in every variant -- but satisfies the same round-trip and
disjoint-inverse invariants, which is what lets
:class:`~repro.core.variations.uid.OrbitUIDVariation` and the address
variations share one API.

Every public layout is known to an attacker who reads the source, so
detection is a boolean property of the scheme.  The keyed schemes turn it
probabilistic: :class:`KeyedRegionScheme` draws its slices (and, with
``slide``, its offsets) and :class:`KeyedXorMaskScheme` its masks from an
injected :class:`random.Random` keyed by a ``key_bits`` parameter, so an
attacker must *search* a ``2**key_bits`` space and every probe risks an
alarm (see :mod:`repro.security`).  A keyed scheme satisfies the same
invariants for any drawn key.

This module deliberately imports nothing from :mod:`repro.core` at module
level (``repro.core.variations`` imports :mod:`repro.memory`);
:class:`~repro.core.reexpression.ReexpressionFunction` objects are built
lazily inside each scheme's ``reexpression``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional, Sequence

#: Width of the partitioned value spaces (32-bit addresses and uid_t).
VALUE_BITS = 32
VALUE_MASK = (1 << VALUE_BITS) - 1

#: The paper's mask: flips the 31 low bits, leaves the sign bit alone.
UID_MASK_31 = 0x7FFFFFFF


class PartitionSchemeError(ValueError):
    """A scheme was constructed or used inconsistently."""


class PartitionScheme:
    """One N-ary re-expression family over a fixed-width value space.

    Subclasses define ``translate``/``untranslate`` and ``reexpression``.
    The two family-wide invariants -- checked by the property-test suite for
    every scheme kind -- are:

    * **round-trip**: ``untranslate(i, translate(i, x)) == x`` for all x;
    * **disjoint inverses**: ``untranslate(i, v)`` are pairwise different
      for every concrete v, so an injected value decodes differently in at
      least two variants.
    """

    #: Stable kind name.
    kind: str = "scheme"

    def __init__(self, num_partitions: int):
        if num_partitions < 2:
            raise PartitionSchemeError(
                f"a partition scheme needs at least two partitions, got {num_partitions}"
            )
        self.num_partitions = num_partitions

    def reexpressions(self, domain: str = "address") -> list:
        """All partitions' re-expression functions, in partition order."""
        return [self.reexpression(index, domain) for index in range(self.num_partitions)]

    def check_index(self, index: int) -> None:
        """Validate a partition index (raises :class:`PartitionSchemeError`)."""
        if not 0 <= index < self.num_partitions:
            raise PartitionSchemeError(
                f"partition index {index} out of range for {self.kind} scheme "
                f"({self.num_partitions} partitions)"
            )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return f"{self.kind} scheme, {self.num_partitions} partitions"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind!r} N={self.num_partitions}>"


class RegionScheme(PartitionScheme):
    """Partitions carved as disjoint regions of the value space.

    Partition *i* sits at ``(slices[i] << shift) + offsets[i]``: the top
    bits above *shift* pick its slice, and its offset slides it inside the
    slice.  A concrete value whose slice no partition holds belongs to no
    partition (every variant faults there, which only strengthens
    detection).  Every nominal value below :attr:`nominal_capacity` -- the
    slice size less the largest offset -- satisfies **placement**:
    ``partition_of(translate(i, a)) == i``.  The bases, the slice owners and
    the capacity are computed once, when a layout is placed.
    """

    def __init__(
        self, kind: str, slices: Sequence[int], offsets: Sequence[int], shift: int
    ):
        super().__init__(len(slices))
        self.kind = kind
        self.shift = shift
        self._place(slices, offsets)

    def _place(self, slices: Sequence[int], offsets: Sequence[int]) -> None:
        """Adopt a layout: one slice and one offset per partition."""
        self.slices = tuple(slices)
        self.offsets = tuple(offsets)
        self.bases = tuple(
            (slice_ << self.shift) + offset for slice_, offset in zip(self.slices, self.offsets)
        )
        self._owner = {slice_: index for index, slice_ in enumerate(self.slices)}
        #: How many nominal values are guaranteed to place correctly.
        self.nominal_capacity = (1 << self.shift) - max(self.offsets)

    def base_of(self, index: int) -> int:
        """The offset partition *index* adds to nominal values."""
        self.check_index(index)
        return self.bases[index]

    def partition_of(self, value: int) -> Optional[int]:
        """The unique partition containing concrete *value*, or ``None``."""
        return self._owner.get((value & VALUE_MASK) >> self.shift)

    def translate(self, index: int, value: int) -> int:
        """Re-express nominal *value* into partition *index* (``R_index``)."""
        return (value + self.base_of(index)) & VALUE_MASK

    def untranslate(self, index: int, value: int) -> int:
        """Invert :meth:`translate`: concrete *value* back to nominal form."""
        return (value - self.base_of(index)) & VALUE_MASK

    def reexpression(self, index: int, domain: str = "address"):
        """Partition *index*'s re-expression as a
        :class:`~repro.core.reexpression.ReexpressionFunction`."""
        # Imported lazily: repro.core.variations imports repro.memory, so a
        # module-level import here would be circular.
        from repro.core.reexpression import identity_reexpression, offset_reexpression

        base = self.base_of(index)
        if base == 0:
            return identity_reexpression(domain)
        return offset_reexpression(base, domain=domain)

    def describe(self) -> str:
        return (
            f"{self.kind} scheme: {self.num_partitions} partitions in slices of "
            f"2^{self.shift} addresses"
        )


def _partition_bits(num_partitions: int) -> int:
    """The top bits needed to address *num_partitions* disjoint slices."""
    return max(1, (num_partitions - 1).bit_length())


def _top_bits_scheme(kind: str, num_partitions: int, offset: int = 0) -> RegionScheme:
    """Partition *i* in the *i*-th top-bits slice, slid by ``i * offset``."""
    indices = range(num_partitions)
    return RegionScheme(
        kind,
        indices,
        [index * offset for index in indices],
        VALUE_BITS - _partition_bits(num_partitions),
    )


def orbit_scheme(num_partitions: int) -> RegionScheme:
    """Top-``ceil(log2 N)``-bits partitioning, the N-ary address layout.

    For N=2 this is numerically the paper's high-bit split.
    """
    return _top_bits_scheme("orbit", num_partitions)


def fd_orbit_scheme(num_partitions: int) -> RegionScheme:
    """The orbit layout over the file-descriptor value space.

    Descriptors are small non-negative integers, so every real descriptor
    lies in partition 0's nominal range for any practical N.  Variant *i*'s
    user space holds descriptor ``fd + (i << shift)``; the fd variation
    decodes arguments ahead of the kernel and re-expresses descriptor
    results, so an fd injected identically into every variant decodes to N
    pairwise-different descriptors and diverges at first use.
    """
    return _top_bits_scheme("fd-orbit", num_partitions)


def high_bit_scheme(num_partitions: int = 2) -> RegionScheme:
    """The paper's layout: two partitions split on the address high bit.

    ``R_0(a) = a``; ``R_1(a) = a + 0x80000000`` (Cox et al., USENIX Security
    2006).  Its own kind keeps the paper-exact configuration nameable though
    it coincides with ``orbit_scheme(2)`` numerically.
    """
    if num_partitions != 2:
        raise PartitionSchemeError(
            f"the high-bit scheme is defined for exactly two partitions, "
            f"got {num_partitions}"
        )
    return _top_bits_scheme("high-bit", num_partitions)


def extended_orbit_scheme(num_partitions: int = 2, offset: int = 0x00010000) -> RegionScheme:
    """The orbit layout plus a per-partition slide (Bruschi et al. 2007).

    Partition *i* starts at ``(i << shift) + i * offset``, so corresponding
    addresses differ across variants even in their low bytes and a partial
    (low-byte) pointer overwrite is detected with high probability.  The
    N=2 instance puts variant 1 at ``0x80000000 + offset``.
    """
    scheme = _top_bits_scheme("extended-orbit", num_partitions, offset)
    if offset <= 0 or (num_partitions - 1) * offset >= 1 << scheme.shift:
        raise PartitionSchemeError(
            f"offset must be positive and small enough that every slide "
            f"stays inside its 2^{scheme.shift}-address slice, got 0x{offset:x}"
        )
    return scheme


# ---------------------------------------------------------------------------
# The UID family: XOR-mask re-expression through the same protocol
# ---------------------------------------------------------------------------

#: Hand-picked 31-bit masks for the first orbit variants: identity, the
#: paper's mask, then alternating/stripe patterns that stay pairwise distinct.
_ORBIT_MASK_TABLE = (
    0x00000000,
    UID_MASK_31,
    0x55555555,
    0x2AAAAAAA,
    0x33333333,
    0x4CCCCCCC,
    0x0F0F0F0F,
    0x70F0F0F0,
)


def default_uid_masks(num_variants: int) -> tuple[int, ...]:
    """Pairwise-distinct 31-bit XOR masks, one per variant (``mask_0 = 0``).

    The detection argument of Section 3 only needs the masks to differ
    pairwise: an attacker-injected concrete value ``v`` decodes to
    ``v XOR mask_i`` in variant *i*, so distinct masks guarantee at least two
    variants disagree about any injected value.  Masks never set bit 31, so
    every variant's representation of a valid UID stays a value the kernel
    accepts (the Section 3.2 constraint).  The first eight masks come from a
    fixed table; beyond that a deterministic multiplicative walk extends the
    orbit, so the same ``num_variants`` always yields the same masks.
    """
    if num_variants < 2:
        raise ValueError(f"an orbit needs at least two variants, got {num_variants}")
    masks = list(_ORBIT_MASK_TABLE[:num_variants])
    seen = set(masks)
    candidate = 0x6A09E667  # frac(sqrt(2)) -- an arbitrary fixed seed
    while len(masks) < num_variants:
        candidate = (candidate * 0x9E3779B1 + 0x7F4A7C15) & UID_MASK_31
        if candidate and candidate not in seen:
            masks.append(candidate)
            seen.add(candidate)
    return tuple(masks)


class XorMaskScheme(PartitionScheme):
    """Per-partition XOR masks: the UID re-expression family as a scheme.

    XOR with a constant is self-inverse, so ``translate`` and
    ``untranslate`` coincide; the disjoint-inverses invariant reduces to the
    masks being pairwise distinct, which the constructor enforces.  The
    scheme does not carve the value space -- every concrete value is a legal
    representation in every variant, and detection rests entirely on decode
    divergence -- so it has no ``base_of`` or ``partition_of``.
    """

    kind = "uid-xor"

    def __init__(self, masks: tuple[int, ...]):
        masks = tuple(int(mask) & VALUE_MASK for mask in masks)
        super().__init__(len(masks))
        if len(set(masks)) != len(masks):
            raise PartitionSchemeError(f"XOR masks must be pairwise distinct, got {masks}")
        # The Section 3.2 constraint: a mask touching the sign bit re-expresses
        # valid UIDs into values the kernel refuses (the rejected full-flip
        # design), so the scheme family excludes it by construction.
        signed = [mask for mask in masks if mask & ~UID_MASK_31]
        if signed:
            raise PartitionSchemeError(
                f"XOR masks must leave the sign bit clear (Section 3.2), got "
                f"{', '.join(f'0x{mask:08X}' for mask in signed)}"
            )
        self.masks = masks

    @classmethod
    def for_uids(cls, num_partitions: int) -> "XorMaskScheme":
        """The standard UID orbit: :func:`default_uid_masks` masks."""
        return cls(default_uid_masks(num_partitions))

    def mask_of(self, index: int) -> int:
        """Partition *index*'s XOR mask."""
        self.check_index(index)
        return self.masks[index]

    def translate(self, index: int, value: int) -> int:
        return (value ^ self.mask_of(index)) & VALUE_MASK

    def untranslate(self, index: int, value: int) -> int:
        # XOR with a constant is self-inverse; delegating (rather than
        # aliasing the method at class level) keeps that true for any
        # subclass that overrides translate.
        return self.translate(index, value)

    def reexpression(self, index: int, domain: str = "uid"):
        from repro.core.reexpression import identity_reexpression, xor_reexpression

        mask = self.mask_of(index)
        if mask == 0:
            return identity_reexpression(domain)
        return xor_reexpression(mask, domain)

    def describe(self) -> str:
        return (
            f"{self.kind} scheme: {self.num_partitions} pairwise-distinct XOR masks "
            f"({', '.join(f'0x{mask:08X}' for mask in self.masks)})"
        )


# ---------------------------------------------------------------------------
# Keyed schemes: secret layouts drawn from an injected random.Random
# ---------------------------------------------------------------------------


def _keyed_rng(seed: Optional[int], rng: Optional[random.Random]) -> random.Random:
    """The key source: an injected generator, a seeded one, or a fresh one.

    Module-global :mod:`random` state is never touched -- reproducibility
    flows entirely through the ``seed``/``rng`` parameters (the ``--seed``
    plumbing hands every keyed scheme its own derived generator).
    """
    if rng is not None:
        return rng
    return random.Random(seed)


class KeyedScheme:
    """Mixin protocol shared by the keyed scheme kinds.

    A keyed scheme holds its key source and redraws its secrets on
    :meth:`rotate` -- the engine rotates keys when a session restarts, and
    an unseeded scheme draws a fresh, unpredictable key per construction.
    ``key_bits`` names the entropy of the secret an attacker must search:
    the drawn layout is one point in a ``2**key_bits``-sized space.
    """

    def rotate(self) -> None:
        """Redraw the scheme's secrets from its key source, in place."""
        raise NotImplementedError

    def secret(self) -> tuple[int, ...]:
        """The current secret, as a tuple (for tests and attacker oracles)."""
        raise NotImplementedError

    def install_secret(self, values: "Sequence[int]") -> None:
        """Adopt a previously drawn secret verbatim (checkpoint restore).

        The inverse of :meth:`secret`: a restored session must continue under
        the *same* key layout the checkpointed session was running, not a
        fresh draw, or every in-flight concrete representation would decode
        differently after migration.  Implementations validate the values
        against the scheme's invariants (distinctness, range) and raise
        :class:`PartitionSchemeError` on a corrupt or mismatched secret.
        """
        raise NotImplementedError


class KeyedRegionScheme(KeyedScheme, RegionScheme):
    """A region layout with *secret* slices and, with *slide*, secret offsets.

    The top ``key_bits`` bits address ``2**key_bits`` equal slices; each of
    the N partitions lives in a slice drawn (without replacement) from an
    injected :class:`random.Random`.  The public orbit pins partition *i* to
    slice *i*; here an attacker guessing where variant data lives must
    search the slice space, and any probe that lands inside *some* variant's
    slice -- but not all of them -- diverges and raises an alarm
    (``keyed-orbit``).  With *slide* each partition is also slid by a secret
    offset inside its slice, the keyed analogue of the extended orbit, so an
    attacker who learns a slice still faces low-byte uncertainty
    (``keyed-address``).  Slices are drawn first, then the offsets.
    """

    #: Keep at least 2^16 nominal addresses so real program layouts still fit.
    MAX_KEY_BITS = 16

    def __init__(
        self,
        num_partitions: int,
        *,
        key_bits: int = 8,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        slide: bool = False,
    ):
        # The public orbit holds the place until the key is checked and
        # drawn, so the partition count is checked first.
        super().__init__(
            "keyed-address" if slide else "keyed-orbit",
            range(num_partitions),
            [0] * num_partitions,
            VALUE_BITS - _partition_bits(num_partitions),
        )
        if not 1 <= key_bits <= self.MAX_KEY_BITS:
            raise PartitionSchemeError(
                f"key_bits must be in 1..{self.MAX_KEY_BITS}, got {key_bits}"
            )
        if (1 << key_bits) < num_partitions:
            raise PartitionSchemeError(
                f"2^{key_bits} slices cannot host {num_partitions} partitions; "
                f"raise key_bits to at least {_partition_bits(num_partitions)}"
            )
        self.key_bits = key_bits
        self.shift = VALUE_BITS - key_bits
        self.slide = slide
        # Slides stay within a quarter slice so at least 3/4 of each slice
        # remains usable nominal capacity at any key size.
        self._span = max(1, (1 << self.shift) >> 2)
        self._rng = _keyed_rng(seed, rng)
        self.rotate()

    def rotate(self) -> None:
        slices = self._rng.sample(range(1 << self.key_bits), self.num_partitions)
        if self.slide:
            offsets = [self._rng.randrange(self._span) for _ in slices]
        else:
            offsets = [0] * self.num_partitions
        self._place(slices, offsets)

    def secret(self) -> tuple[int, ...]:
        return self.slices + self.offsets if self.slide else self.slices

    def install_secret(self, values: Sequence[int]) -> None:
        values = tuple(int(v) for v in values)
        count = self.num_partitions
        slices, offsets = values, [0] * count
        if self.slide:
            if len(values) != 2 * count:
                raise PartitionSchemeError(
                    f"{self.kind} secret wants {count} slices plus "
                    f"{count} offsets, got {len(values)} values"
                )
            slices, offsets = values[:count], values[count:]
            if any(not 0 <= offset < self._span for offset in offsets):
                raise PartitionSchemeError(
                    f"{self.kind} offsets must lie in [0, {self._span})"
                )
        if len(slices) != count:
            raise PartitionSchemeError(
                f"{self.kind} secret wants {count} slices, got {len(slices)}"
            )
        if len(set(slices)) != len(slices):
            raise PartitionSchemeError(f"{self.kind} slices must be distinct")
        if any(not 0 <= s < (1 << self.key_bits) for s in slices):
            raise PartitionSchemeError(
                f"{self.kind} slices must lie in [0, 2^{self.key_bits})"
            )
        self._place(slices, offsets)


class KeyedXorMaskScheme(KeyedScheme, XorMaskScheme):
    """UID re-expression with *secret* pairwise-distinct XOR masks.

    Masks are drawn without replacement from ``[0, 2**key_bits)`` (capped at
    31 bits so the Section 3.2 sign-bit constraint holds by construction).
    Unlike the public orbit masks, variant 0's mask is secret too: an
    attacker cannot craft a concrete ``uid_t`` that decodes to a chosen
    semantic UID in *any* variant without guessing that variant's mask.
    Distinct masks keep the deterministic guarantee -- any injected concrete
    value still decodes differently in at least two variants, so keyed UID
    detection remains certain, not probabilistic (the entropy game lives in
    the address family; see :mod:`repro.security`).
    """

    kind = "keyed-uid-xor"

    def __init__(
        self,
        num_partitions: int,
        *,
        key_bits: int = 16,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ):
        if not 1 <= key_bits <= 31:
            raise PartitionSchemeError(f"key_bits must be in 1..31, got {key_bits}")
        if (1 << key_bits) < num_partitions:
            raise PartitionSchemeError(
                f"2^{key_bits} masks cannot be pairwise distinct across "
                f"{num_partitions} partitions; raise key_bits"
            )
        self.key_bits = key_bits
        self._rng = _keyed_rng(seed, rng)
        super().__init__(self._draw_masks(num_partitions))

    def _draw_masks(self, num_partitions: int) -> tuple[int, ...]:
        return tuple(self._rng.sample(range(1 << self.key_bits), num_partitions))

    def rotate(self) -> None:
        # sample() draws without replacement and key_bits <= 31, so the
        # pairwise-distinct and sign-bit invariants hold for every rotation.
        self.masks = self._draw_masks(self.num_partitions)

    def secret(self) -> tuple[int, ...]:
        return self.masks

    def install_secret(self, values: Sequence[int]) -> None:
        masks = tuple(int(v) for v in values)
        if len(masks) != self.num_partitions:
            raise PartitionSchemeError(
                f"{self.kind} secret wants {self.num_partitions} masks, "
                f"got {len(masks)}"
            )
        if len(set(masks)) != len(masks):
            raise PartitionSchemeError(f"{self.kind} masks must be pairwise distinct")
        if any(not 0 <= mask < (1 << self.key_bits) for mask in masks):
            raise PartitionSchemeError(
                f"{self.kind} masks must lie in [0, 2^{self.key_bits})"
            )
        self.masks = masks

    def describe(self) -> str:
        return (
            f"{self.kind} scheme: {self.num_partitions} secret pairwise-distinct "
            f"XOR masks drawn from 2^{self.key_bits}"
        )


# ---------------------------------------------------------------------------
# Boundary-value enumeration (the guarantee-edge corpus feeds on this)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BoundaryValue:
    """One concrete value at an edge of a scheme's guarantee.

    ``partition`` is ``scheme.partition_of(value)`` at enumeration time:
    the unique partition whose region contains the value, or ``None`` when
    no partition claims it (every variant faults there) or the scheme
    carves no regions.
    """

    label: str
    value: int
    partition: Optional[int]


#: Edges of the 32-bit value space itself, shared by every scheme: zero, the
#: largest signed-positive value (2^31 - 1), the sign bit, and the top.
GLOBAL_EDGE_VALUES: tuple[tuple[str, int], ...] = (
    ("zero", 0),
    ("int31-max", UID_MASK_31),
    ("sign-bit", 1 << (VALUE_BITS - 1)),
    ("value-max", VALUE_MASK),
)


def boundary_values(scheme: "RegionScheme | XorMaskScheme") -> tuple[BoundaryValue, ...]:
    """Enumerate *scheme*'s guarantee-edge concrete values, deterministically.

    For region-carving schemes this walks every partition's placement
    boundary: the first and last concrete values the placement invariant
    covers (``base_of(i)`` and ``base_of(i) + nominal_capacity - 1``) plus
    the values one below and one past them -- the EFAULT edge, where
    ``untranslate(i, value)`` lands outside ``[0, nominal_capacity)`` and a
    dereference by variant *i* must fault.  Mask schemes do not carve the
    space, so their edges are the masks themselves (each is some variant's
    re-expression of zero).  The four global 32-bit edges (0, 2^31 - 1, the
    sign bit, the all-ones value) are always appended.  Duplicate concrete
    values keep their first label, so the result order is stable for a
    given scheme configuration.
    """
    entries: list[BoundaryValue] = []
    seen: set[int] = set()
    regions = isinstance(scheme, RegionScheme)

    def add(label: str, value: int) -> None:
        value &= VALUE_MASK
        if value in seen:
            return
        seen.add(value)
        entries.append(
            BoundaryValue(label, value, scheme.partition_of(value) if regions else None)
        )

    if regions:
        capacity = scheme.nominal_capacity
        for index in range(scheme.num_partitions):
            first = scheme.base_of(index)
            last = (first + capacity - 1) & VALUE_MASK
            add(f"p{index}-first", first)
            add(f"p{index}-below", first - 1)
            add(f"p{index}-last", last)
            add(f"p{index}-past", last + 1)
    else:
        for index, mask in enumerate(scheme.masks):
            add(f"p{index}-mask", mask)
    for label, value in GLOBAL_EDGE_VALUES:
        add(label, value)
    return tuple(entries)
