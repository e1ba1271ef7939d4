"""Simulated process address spaces with N-ary partitioning support.

Address-space partitioning (Figure 1 and Table 1 of the paper) builds
variants whose valid addresses are disjoint: under the paper's 2-variant
scheme, variant 0 only uses addresses with the high bit clear, variant 1
only addresses with the high bit set (``R_1(a) = a + 0x80000000``).  Any
attack that injects a *concrete absolute address* can therefore be valid in
at most one variant; every sibling variant's access raises a segmentation
fault which the monitor reports.

This module models that property directly, for any partition count: an
:class:`AddressSpace` owns a set of mapped
:class:`~repro.memory.memory_model.MemoryRegion` objects and (optionally)
one partition of a :class:`~repro.memory.partition.RegionScheme`.  Every
load/store validates that the address lies in the space's partition *and*
inside a mapped region; otherwise it raises
:class:`~repro.kernel.errors.SegmentationFault`.  Which addresses belong to
the partition -- the high-bit half, one of N top-bits slices, a
Bruschi-style offset-extended slice, a keyed slice -- is entirely the
layout's decision; the address space itself hardcodes no split.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.errors import SegmentationFault
from repro.memory.memory_model import MemoryRegion
from repro.memory.partition import RegionScheme

#: Size of the simulated address space (32-bit).
ADDRESS_BITS = 32
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1

#: The bit the paper's 2-variant scheme splits on (kept for formulas and
#: layout constants; the actual split now lives in the partition schemes).
PARTITION_BIT = 0x80000000


class AddressSpace:
    """A single variant's view of memory.

    Parameters
    ----------
    scheme:
        The :class:`~repro.memory.partition.RegionScheme` that carves the
        address space, or ``None`` for an unpartitioned space (an ordinary
        process).  Mask schemes such as the UID XOR family re-express values
        in place and cannot back an address space.
    index:
        Which of the scheme's partitions this space occupies.  Must be 0
        when the space is unpartitioned.
    """

    def __init__(self, scheme: Optional[RegionScheme] = None, index: int = 0):
        if scheme is None:
            if index != 0:
                raise ValueError(
                    f"an unpartitioned address space has no partition index, got {index}"
                )
        else:
            if not isinstance(scheme, RegionScheme):
                raise ValueError(
                    f"{scheme.kind!r} schemes do not carve address regions and "
                    f"cannot back an address space"
                )
            scheme.check_index(index)
        self.scheme = scheme
        self.index = index
        self.regions: list[MemoryRegion] = []

    @property
    def partition(self) -> Optional[int]:
        """This space's partition index, or ``None`` when unpartitioned."""
        return None if self.scheme is None else self.index

    # -- address validity ----------------------------------------------------

    def partition_base(self) -> int:
        """The offset this space adds to nominal (variant-neutral) addresses."""
        if self.scheme is None:
            return 0
        return self.scheme.base_of(self.index)

    def in_partition(self, address: int) -> bool:
        """True when *address* falls inside this space's partition."""
        if self.scheme is None:
            return True
        return self.scheme.partition_of(address & ADDRESS_MASK) == self.index

    def translate(self, nominal_address: int) -> int:
        """Map a variant-neutral *nominal* address into this space.

        This is the reexpression function ``R_i`` for addresses: identity for
        partition 0, ``+base_of(i)`` for every other partition.
        """
        return (nominal_address + self.partition_base()) & ADDRESS_MASK

    def untranslate(self, address: int) -> int:
        """Inverse reexpression: map an address back to its nominal value."""
        return (address - self.partition_base()) & ADDRESS_MASK

    # -- region management -----------------------------------------------------

    def map_region(self, region: MemoryRegion) -> MemoryRegion:
        """Map *region* into this space, relocating it into the partition.

        The region's base address is interpreted as nominal and shifted by
        :meth:`partition_base`, so the same program maps "the stack at
        nominal 0x00100000" and ends up with pairwise-disjoint concrete
        addresses across the variants.

        The nominal region must fit inside the scheme's per-partition
        capacity: a layout that was legal under a wide scheme (N=2 leaves
        2^31 nominal addresses) can overhang a narrower partition at
        higher N, and the overhanging addresses would land in a sibling's
        partition -- every access there would fault, turning a layout
        mistake into benign-workload false alarms.  Rejecting it at map
        time keeps the error at its cause.
        """
        if self.scheme is not None:
            capacity = self.scheme.nominal_capacity
            if region.base + len(region.data) > capacity:
                raise ValueError(
                    f"region {region.name} (nominal 0x{region.base:08x}+0x{region.size:x}) "
                    f"exceeds the {self.scheme.kind} scheme's per-partition capacity "
                    f"of 0x{capacity:08x} nominal addresses"
                )
        relocated = region.relocate(self.translate(region.base))
        for existing in self.regions:
            if relocated.overlaps(existing):
                raise ValueError(
                    f"region {relocated.name} overlaps existing region {existing.name}"
                )
        self.regions.append(relocated)
        return relocated

    def region_for(self, address: int) -> MemoryRegion:
        """Find the mapped region containing *address* or fault."""
        address &= ADDRESS_MASK
        if not self.in_partition(address):
            raise SegmentationFault(
                f"address 0x{address:08x} outside partition {self.partition}",
                address=address,
            )
        for region in self.regions:
            if region.contains(address):
                return region
        raise SegmentationFault(f"unmapped address 0x{address:08x}", address=address)

    # -- access ------------------------------------------------------------------

    def load_bytes(self, address: int, count: int) -> bytes:
        """Read *count* bytes starting at *address* (may span one region only)."""
        region = self.region_for(address)
        return region.read(address, count)

    def dereference(self, pointer: int, count: int = 4) -> bytes:
        """Follow *pointer* and read *count* bytes -- the operation an
        absolute-address-injection attack ultimately needs to succeed."""
        return self.load_bytes(pointer, count)
