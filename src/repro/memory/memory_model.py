"""Byte-addressable memory regions and typed variables bound to addresses.

The UID variation defends against *non-control-data* attacks (Chen et al.):
the attacker corrupts an in-memory data value -- here a ``uid_t`` variable --
so that the unmodified program later misbehaves (e.g. fails to drop
privileges).  To reproduce that attack surface faithfully the mini-httpd
stores its security-critical state in simulated memory: fixed-size buffers
that unchecked copies can overflow, adjacent to the UID fields the attacker
wants to reach.

:class:`MemoryRegion` is a named, contiguous byte array with a base address.
:class:`MemoryVariable` is a typed view (32-bit word or byte buffer) at a
fixed offset within a region, which is how programs in this reproduction
declare "a local ``uid_t`` at this stack slot".
"""

from __future__ import annotations

import dataclasses

from repro.kernel.errors import SegmentationFault

WORD_SIZE = 4
WORD_MASK = 0xFFFFFFFF


class MemoryRegion:
    """A contiguous block of simulated memory."""

    def __init__(self, name: str, base: int, size: int):
        if size <= 0:
            raise ValueError("region size must be positive")
        if base < 0:
            raise ValueError("region base must be non-negative")
        self.name = name
        self.base = base
        self.data = bytearray(size)

    # -- geometry -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Region size in bytes."""
        return len(self.data)

    @property
    def end(self) -> int:
        """One past the last valid address."""
        return self.base + len(self.data)

    def contains(self, address: int) -> bool:
        """True when *address* falls inside the region."""
        return self.base <= address < self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        """True when this region overlaps *other*."""
        return self.base < other.base + len(other.data) and other.base < self.base + len(self.data)

    def relocate(self, new_base: int) -> "MemoryRegion":
        """Return a copy of this region rebased at *new_base*."""
        clone = MemoryRegion(self.name, new_base, len(self.data))
        clone.data[:] = self.data
        return clone

    # -- raw access ----------------------------------------------------------

    def _check_range(self, address: int, count: int) -> int:
        """The offset of ``[address, address + count)``, which must lie in the region."""
        if count < 0:
            raise ValueError("negative byte count")
        # The bounds of ``contains`` and ``end``, computed in place: every
        # memory access of a variant program comes through here.
        offset = address - self.base
        size = len(self.data)
        if not 0 <= offset < size or offset + count > size:
            raise SegmentationFault(
                f"access [0x{address:08x}, +{count}) outside region {self.name}",
                address=address,
            )
        return offset

    def read(self, address: int, count: int) -> bytes:
        """Read *count* bytes at absolute *address*."""
        offset = self._check_range(address, count)
        return bytes(self.data[offset : offset + count])

    def write(self, address: int, data: bytes) -> None:
        """Write *data* at absolute *address*."""
        offset = self._check_range(address, len(data))
        self.data[offset : offset + len(data)] = data

    # -- unchecked access (the vulnerability primitive) ------------------------

    def unchecked_copy(self, address: int, data: bytes) -> int:
        """Copy *data* to *address* without bounds checking against sub-buffers.

        This models the classic ``strcpy``-style bug: the copy is bounded only
        by the *region* (so it cannot escape the simulated process), but it is
        free to run past the end of a logical buffer inside the region and
        clobber whatever lives next to it -- for example a ``uid_t`` field.
        Returns the number of bytes actually written.
        """
        if not self.contains(address):
            raise SegmentationFault(
                f"copy target 0x{address:08x} outside region {self.name}", address=address
            )
        writable = min(len(data), self.end - address)
        offset = address - self.base
        self.data[offset : offset + writable] = data[:writable]
        return writable


@dataclasses.dataclass(init=False)
class MemoryVariable:
    """A typed program variable bound to a fixed location in a region.

    ``kind`` is ``"word"`` for a 32-bit value (uid_t, pointer, int) or
    ``"buffer"`` for a fixed-size byte buffer.
    """

    name: str
    region: MemoryRegion
    offset: int
    kind: str = "word"
    size: int = WORD_SIZE

    def __init__(
        self, name: str, region: MemoryRegion, offset: int, kind: str = "word", size: int = WORD_SIZE
    ):
        # Validated in the constructor itself: every server start-up binds
        # its state fields anew, so this is one call, not two.
        if kind == "word":
            size = WORD_SIZE
        elif kind != "buffer":
            raise ValueError(f"unknown variable kind {kind!r}")
        if offset < 0 or offset + size > len(region.data):
            raise ValueError(f"variable {name} does not fit in region {region.name}")
        self.name = name
        self.region = region
        self.offset = offset
        self.kind = kind
        self.size = size

    @property
    def address(self) -> int:
        """Absolute address of this variable."""
        return self.region.base + self.offset

    # -- word access ----------------------------------------------------------

    def get(self) -> int:
        """Read the variable as a 32-bit word."""
        region = self.region
        offset = self.offset
        data = region.data
        if not 0 <= offset <= len(data) - WORD_SIZE:
            region._check_range(region.base + offset, WORD_SIZE)
        return int.from_bytes(data[offset : offset + WORD_SIZE], "little")

    def set(self, value: int) -> None:
        """Write the variable as a 32-bit word."""
        region = self.region
        offset = self.offset
        data = region.data
        if not 0 <= offset <= len(data) - WORD_SIZE:
            region._check_range(region.base + offset, WORD_SIZE)
        data[offset : offset + WORD_SIZE] = (value & WORD_MASK).to_bytes(WORD_SIZE, "little")


class StackFrame:
    """A stack-frame-like layout helper.

    Variables are allocated at increasing offsets in declaration order, which
    fixes the adjacency the overflow attacks rely on: a buffer declared just
    before a ``uid_t`` sits at lower addresses, so an overflow of the buffer
    runs forward into the ``uid_t``.
    """

    def __init__(self, region: MemoryRegion):
        self.region = region
        self._cursor = 0
        self.variables: dict[str, MemoryVariable] = {}

    def alloc_word(self, name: str, initial: int = 0) -> MemoryVariable:
        """Allocate a 32-bit variable."""
        variable = MemoryVariable(name, self.region, self._cursor, kind="word")
        self._cursor += WORD_SIZE
        variable.set(initial)
        self.variables[name] = variable
        return variable

    def alloc_buffer(self, name: str, size: int) -> MemoryVariable:
        """Allocate a fixed-size byte buffer."""
        variable = MemoryVariable(name, self.region, self._cursor, kind="buffer", size=size)
        self._cursor += size
        self.variables[name] = variable
        return variable

    def __getitem__(self, name: str) -> MemoryVariable:
        return self.variables[name]

    def layout(self) -> list[tuple[str, int, int]]:
        """Return ``(name, offset, size)`` tuples in allocation order."""
        ordered = sorted(self.variables.values(), key=lambda v: v.offset)
        return [(v.name, v.offset, v.size) for v in ordered]
