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
equivalence) and the inverses are pairwise disjoint (detection).  Schemes
that carve the value space into *regions* additionally expose ``base_of``
and ``partition_of`` with the placement invariant
``partition_of(translate(i, a)) == i`` for every in-capacity nominal ``a``.

Concrete schemes:

* :class:`HighBitScheme` -- the paper's N=2 high-bit split
  (``R_1(a) = a + 0x80000000``, Cox et al. 2006).
* :class:`OrbitScheme` -- the N-ary generalisation: the top
  ``ceil(log2 N)`` bits select the partition, so any N >= 2 variants get
  pairwise-disjoint address regions.
* :class:`ExtendedOrbitScheme` -- Bruschi et al.'s offset-extended
  partitioning, N-ary: partition *i* is additionally slid by ``i * offset``
  so even the low bytes of corresponding addresses differ, restoring
  probabilistic protection against partial pointer overwrites.
* :class:`XorMaskScheme` -- the UID re-expression family: per-variant XOR
  masks (pairwise distinct, sign bit clear).  It does not carve regions --
  every concrete value is representable in every variant -- but satisfies
  the same round-trip and disjoint-inverse invariants through the same
  protocol, which is what lets :class:`~repro.core.variations.uid.\
OrbitUIDVariation` and the address variations share one API.

Every fixed scheme above is *public*: an attacker who reads the source knows
every mask and base, so detection is a boolean property of the scheme.  The
keyed variants turn it probabilistic: :class:`KeyedXorMaskScheme`,
:class:`KeyedOrbitScheme` and :class:`KeyedAddressScheme` draw their masks,
slice assignments and slide offsets from an injected :class:`random.Random`
keyed by a ``key_bits`` parameter, so an attacker must *search* a
``2**key_bits`` space and every probe risks an alarm (see
:mod:`repro.security`).  A keyed scheme satisfies the exact same round-trip,
disjoint-inverse and placement invariants for any drawn key -- the property
suite sweeps them like every other registered kind.

The module-level :data:`SCHEMES` registry maps stable kind names to
factories (``create_scheme("orbit", 5)``); new schemes register once and
become constructible wherever a scheme is accepted.

This module deliberately imports nothing from :mod:`repro.core` at module
level (``repro.core.variations`` imports :mod:`repro.memory`);
:class:`~repro.core.reexpression.ReexpressionFunction` objects are built
lazily inside :meth:`PartitionScheme.reexpression`.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional, Sequence

#: Width of the partitioned value spaces (32-bit addresses and uid_t).
VALUE_BITS = 32
VALUE_MASK = (1 << VALUE_BITS) - 1

#: The paper's mask: flips the 31 low bits, leaves the sign bit alone.
UID_MASK_31 = 0x7FFFFFFF


class PartitionSchemeError(ValueError):
    """A scheme was constructed or used inconsistently."""


class PartitionScheme:
    """One N-ary re-expression family over a fixed-width value space.

    Subclasses define :meth:`base_of` (region-carving schemes) or override
    :meth:`translate`/:meth:`untranslate` directly (mask schemes).  The two
    family-wide invariants -- checked by the property-test suite for every
    registered scheme -- are:

    * **round-trip**: ``untranslate(i, translate(i, x)) == x`` for all x;
    * **disjoint inverses**: ``untranslate(i, v)`` are pairwise different
      for every concrete v, so an injected value decodes differently in at
      least two variants.

    Region-carving schemes (:attr:`carves_regions` true) additionally
    guarantee **placement**: ``partition_of(translate(i, a)) == i`` for
    every nominal ``a < nominal_capacity``.
    """

    #: Stable kind name (the :data:`SCHEMES` registry key).
    kind: str = "scheme"

    #: True when the scheme assigns each concrete value to at most one
    #: partition (address-style); False for mask schemes where every value
    #: is representable in every variant (UID-style).
    carves_regions: bool = True

    def __init__(self, num_partitions: int):
        if num_partitions < 2:
            raise PartitionSchemeError(
                f"a partition scheme needs at least two partitions, got {num_partitions}"
            )
        self.num_partitions = num_partitions

    # -- the protocol ----------------------------------------------------------

    def base_of(self, index: int) -> int:
        """The offset partition *index* adds to nominal values (region schemes)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not place partitions at base offsets"
        )

    def partition_of(self, value: int) -> Optional[int]:
        """The unique partition containing concrete *value*, or ``None``.

        ``None`` means no partition claims the value: for region schemes a
        gap every variant faults on, for mask schemes (which do not carve
        the space) always.
        """
        return None

    def translate(self, index: int, value: int) -> int:
        """Re-express nominal *value* into partition *index* (``R_index``)."""
        self.check_index(index)
        return (value + self.base_of(index)) & VALUE_MASK

    def untranslate(self, index: int, value: int) -> int:
        """Invert :meth:`translate`: concrete *value* back to nominal form."""
        self.check_index(index)
        return (value - self.base_of(index)) & VALUE_MASK

    @property
    def nominal_capacity(self) -> int:
        """How many nominal values are guaranteed to place correctly.

        Every nominal value in ``[0, nominal_capacity)`` satisfies the
        placement invariant in every partition; mask schemes re-express the
        whole space.
        """
        return 1 << VALUE_BITS

    # -- derived helpers -------------------------------------------------------

    def reexpression(self, index: int, domain: str = "address"):
        """Partition *index*'s re-expression as a
        :class:`~repro.core.reexpression.ReexpressionFunction`."""
        # Imported lazily: repro.core.variations imports repro.memory, so a
        # module-level import here would be circular.
        from repro.core.reexpression import identity_reexpression, offset_reexpression

        self.check_index(index)
        base = self.base_of(index)
        if base == 0:
            return identity_reexpression(domain)
        return offset_reexpression(base, domain=domain)

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


def _partition_bits(num_partitions: int) -> int:
    """The top bits needed to address *num_partitions* disjoint slices."""
    return max(1, (num_partitions - 1).bit_length())


class OrbitScheme(PartitionScheme):
    """Top-``ceil(log2 N)``-bits partitioning, the N-ary address scheme.

    Partition *i* occupies the slice whose top bits encode *i*; concrete
    values whose top bits encode an index >= N belong to no partition (every
    variant faults there, which only strengthens detection).  For N=2 this
    is numerically the paper's high-bit split.
    """

    kind = "orbit"

    def __init__(self, num_partitions: int):
        super().__init__(num_partitions)
        self.partition_bits = _partition_bits(num_partitions)
        self.shift = VALUE_BITS - self.partition_bits

    def base_of(self, index: int) -> int:
        self.check_index(index)
        return index << self.shift

    def partition_of(self, value: int) -> Optional[int]:
        index = (value & VALUE_MASK) >> self.shift
        return index if index < self.num_partitions else None

    @property
    def nominal_capacity(self) -> int:
        return 1 << self.shift

    def describe(self) -> str:
        return (
            f"{self.kind} scheme: top {self.partition_bits} bit(s) select one of "
            f"{self.num_partitions} partitions of 2^{self.shift} addresses"
        )


class FdOrbitScheme(OrbitScheme):
    """Orbit partitioning over the file-descriptor value space.

    Numerically identical to :class:`OrbitScheme` -- descriptors are small
    non-negative integers, so the top-bits carve leaves every real
    descriptor in partition 0's nominal range for any practical N -- but
    registered as its own kind so fd diversity is nameable in scenarios and
    swept by the invariant suite like every other family.  Variant *i*'s
    user space holds descriptor ``fd + (i << shift)``; the fd variation
    decodes arguments ahead of the kernel and re-expresses descriptor
    results, so an fd value injected identically into every variant decodes
    to N pairwise-different descriptors and diverges at first use.
    """

    kind = "fd-orbit"

    def reexpression(self, index: int, domain: str = "fd"):
        return super().reexpression(index, domain)


class HighBitScheme(OrbitScheme):
    """The paper's scheme: two partitions split on the address high bit.

    ``R_0(a) = a``; ``R_1(a) = a + 0x80000000`` (Cox et al., USENIX Security
    2006).  Kept as its own kind so the paper-exact configuration stays
    nameable even though it coincides with ``OrbitScheme(2)`` numerically.
    """

    kind = "high-bit"

    def __init__(self, num_partitions: int = 2):
        if num_partitions != 2:
            raise PartitionSchemeError(
                f"the high-bit scheme is defined for exactly two partitions, "
                f"got {num_partitions}"
            )
        super().__init__(num_partitions)


class ExtendedOrbitScheme(OrbitScheme):
    """Orbit partitioning plus a per-partition slide (Bruschi et al. 2007).

    Partition *i* starts at ``(i << shift) + i * offset``, so corresponding
    addresses differ across variants even in their low bytes and a partial
    (low-byte) pointer overwrite is detected with high probability.  The
    N=2 instance reproduces ``ExtendedAddressPartitioning``'s historical
    layout: variant 1 at ``0x80000000 + offset``.
    """

    kind = "extended-orbit"

    def __init__(self, num_partitions: int = 2, offset: int = 0x00010000):
        super().__init__(num_partitions)
        slice_size = 1 << self.shift
        if offset <= 0 or (num_partitions - 1) * offset >= slice_size:
            raise PartitionSchemeError(
                f"offset must be positive and small enough that every slide "
                f"stays inside its 2^{self.shift}-address slice, got 0x{offset:x}"
            )
        self.offset = offset

    def base_of(self, index: int) -> int:
        self.check_index(index)
        return (index << self.shift) + index * self.offset

    @property
    def nominal_capacity(self) -> int:
        return (1 << self.shift) - (self.num_partitions - 1) * self.offset

    def describe(self) -> str:
        return (
            f"{self.kind} scheme: {self.num_partitions} top-bit partitions, "
            f"each slid by a further 0x{self.offset:x} per index"
        )


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
    divergence -- so :meth:`partition_of` is always ``None`` and
    :meth:`base_of` is unavailable.
    """

    kind = "uid-xor"
    carves_regions = False

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

    #: Every keyed kind reports True so callers can detect rotatable schemes
    #: without enumerating kinds.
    keyed: bool = True

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


class KeyedOrbitScheme(KeyedScheme, PartitionScheme):
    """Orbit partitioning with *secret* slice assignments.

    The top ``key_bits`` bits address ``2**key_bits`` equal slices; each of
    the N partitions lives in a slice drawn (without replacement) from an
    injected :class:`random.Random`.  The public orbit scheme pins partition
    *i* to slice *i*; here an attacker guessing where variant data lives must
    search the slice space, and any probe that lands inside *some* variant's
    slice -- but not all of them -- diverges and raises an alarm.  Bases are
    pairwise distinct by construction, so the round-trip/disjoint-inverse
    invariants hold for every drawn key.
    """

    kind = "keyed-orbit"

    #: Keep at least 2^16 nominal addresses so real program layouts still fit.
    MAX_KEY_BITS = 16

    def __init__(
        self,
        num_partitions: int,
        *,
        key_bits: int = 8,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(num_partitions)
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
        self._rng = _keyed_rng(seed, rng)
        self.rotate()

    def rotate(self) -> None:
        self.slices: tuple[int, ...] = tuple(
            self._rng.sample(range(1 << self.key_bits), self.num_partitions)
        )
        self._slice_owner = {s: i for i, s in enumerate(self.slices)}

    def secret(self) -> tuple[int, ...]:
        return self.slices

    def _check_slices(self, values: Sequence[int]) -> tuple[int, ...]:
        slices = tuple(int(v) for v in values)
        if len(slices) != self.num_partitions:
            raise PartitionSchemeError(
                f"{self.kind} secret wants {self.num_partitions} slices, "
                f"got {len(slices)}"
            )
        if len(set(slices)) != len(slices):
            raise PartitionSchemeError(f"{self.kind} slices must be distinct")
        if any(not 0 <= s < (1 << self.key_bits) for s in slices):
            raise PartitionSchemeError(
                f"{self.kind} slices must lie in [0, 2^{self.key_bits})"
            )
        return slices

    def install_secret(self, values: Sequence[int]) -> None:
        self.slices = self._check_slices(values)
        self._slice_owner = {s: i for i, s in enumerate(self.slices)}

    def base_of(self, index: int) -> int:
        self.check_index(index)
        return self.slices[index] << self.shift

    def partition_of(self, value: int) -> Optional[int]:
        return self._slice_owner.get((value & VALUE_MASK) >> self.shift)

    @property
    def nominal_capacity(self) -> int:
        return 1 << self.shift

    def describe(self) -> str:
        return (
            f"{self.kind} scheme: {self.num_partitions} partitions in secret "
            f"slices among 2^{self.key_bits} ({self.key_bits}-bit key)"
        )


class KeyedAddressScheme(KeyedOrbitScheme):
    """Keyed orbit slices plus secret per-partition slides (keyed ASLR).

    On top of the secret slice assignment, each partition is slid by a
    secret offset inside its slice (the keyed analogue of
    :class:`ExtendedOrbitScheme`), so even an attacker who learns a slice
    still faces low-byte uncertainty -- corresponding addresses differ
    across variants in their low bytes too.  Capacity shrinks by the
    largest drawn slide so placement holds over the whole nominal range.
    """

    kind = "keyed-address"

    def rotate(self) -> None:
        super().rotate()
        # Slides stay within a quarter slice so at least 3/4 of each slice
        # remains usable nominal capacity at any key size.
        span = max(1, (1 << self.shift) >> 2)
        self.offsets: tuple[int, ...] = tuple(
            self._rng.randrange(span) for _ in range(self.num_partitions)
        )

    def secret(self) -> tuple[int, ...]:
        return self.slices + self.offsets

    def install_secret(self, values: Sequence[int]) -> None:
        values = tuple(int(v) for v in values)
        if len(values) != 2 * self.num_partitions:
            raise PartitionSchemeError(
                f"{self.kind} secret wants {self.num_partitions} slices plus "
                f"{self.num_partitions} offsets, got {len(values)} values"
            )
        slices, offsets = values[: self.num_partitions], values[self.num_partitions :]
        span = max(1, (1 << self.shift) >> 2)
        if any(not 0 <= offset < span for offset in offsets):
            raise PartitionSchemeError(
                f"{self.kind} offsets must lie in [0, {span})"
            )
        self.slices = self._check_slices(slices)
        self._slice_owner = {s: i for i, s in enumerate(self.slices)}
        self.offsets = offsets

    def base_of(self, index: int) -> int:
        self.check_index(index)
        return (self.slices[index] << self.shift) + self.offsets[index]

    @property
    def nominal_capacity(self) -> int:
        return (1 << self.shift) - max(self.offsets)

    def describe(self) -> str:
        return (
            f"{self.kind} scheme: {self.num_partitions} partitions in secret "
            f"slices among 2^{self.key_bits}, each slid by a secret offset"
        )


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
# The scheme registry
# ---------------------------------------------------------------------------

SchemeFactory = Callable[..., PartitionScheme]

#: Stable kind name -> factory.  Factories take ``num_partitions`` first and
#: any scheme-specific keyword parameters after it.
SCHEMES: dict[str, SchemeFactory] = {
    HighBitScheme.kind: HighBitScheme,
    OrbitScheme.kind: OrbitScheme,
    FdOrbitScheme.kind: FdOrbitScheme,
    ExtendedOrbitScheme.kind: ExtendedOrbitScheme,
    XorMaskScheme.kind: XorMaskScheme.for_uids,
    KeyedOrbitScheme.kind: KeyedOrbitScheme,
    KeyedAddressScheme.kind: KeyedAddressScheme,
    KeyedXorMaskScheme.kind: KeyedXorMaskScheme,
}


def scheme_kinds() -> list[str]:
    """The registered scheme kinds, sorted."""
    return sorted(SCHEMES)


def create_scheme(kind: str, num_partitions: int, **params) -> PartitionScheme:
    """Build a scheme from its registered kind name."""
    try:
        factory = SCHEMES[kind]
    except KeyError:
        raise PartitionSchemeError(
            f"unknown partition scheme {kind!r}; registered schemes: "
            f"{', '.join(scheme_kinds())}"
        ) from None
    return factory(num_partitions, **params)


# ---------------------------------------------------------------------------
# Boundary-value enumeration (the guarantee-edge corpus feeds on this)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BoundaryValue:
    """One concrete value at an edge of a scheme's guarantee.

    ``partition`` is ``scheme.partition_of(value)`` at enumeration time:
    the unique partition whose region contains the value, or ``None`` when
    no partition claims it (every variant faults there).
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


def boundary_values(scheme: PartitionScheme) -> tuple[BoundaryValue, ...]:
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

    def add(label: str, value: int) -> None:
        value &= VALUE_MASK
        if value in seen:
            return
        seen.add(value)
        entries.append(BoundaryValue(label, value, scheme.partition_of(value)))

    if scheme.carves_regions:
        capacity = scheme.nominal_capacity
        for index in range(scheme.num_partitions):
            first = scheme.base_of(index)
            last = (first + capacity - 1) & VALUE_MASK
            add(f"p{index}-first", first)
            add(f"p{index}-below", first - 1)
            add(f"p{index}-last", last)
            add(f"p{index}-past", last + 1)
    else:
        for index, mask in enumerate(getattr(scheme, "masks", ())):
            add(f"p{index}-mask", mask)
    for label, value in GLOBAL_EDGE_VALUES:
        add(label, value)
    return tuple(entries)
