"""Simulated memory substrate: address spaces, regions, variables, corruption.

This package stands in for the real process memory the paper's attacks
operate on.  It provides:

* :mod:`~repro.memory.partition` -- the N-ary
  :class:`~repro.memory.partition.PartitionScheme` family (the paper's
  high-bit split, the top-bits orbit, Bruschi's offset-extended variant and
  the UID XOR-mask family) behind one re-expression protocol;
* :class:`~repro.memory.address_space.AddressSpace` -- per-variant address
  spaces carved by a partition scheme (the Figure 1 variation);
* :class:`~repro.memory.memory_model.MemoryRegion` /
  :class:`~repro.memory.memory_model.MemoryVariable` /
  :class:`~repro.memory.memory_model.StackFrame` -- byte-addressable storage
  for the security-critical program data the UID variation protects;
* :mod:`~repro.memory.corruption` -- the corruption primitives (full-word,
  partial-byte, bit-flip overwrites and buffer overflows) used by the attack
  library and the detection-property analyses.
"""

# The kernel's processes own address spaces, and this package raises the
# kernel's SegmentationFault: loading the kernel first lets either package be
# imported first.
import repro.kernel  # noqa: F401
from repro.memory.address_space import ADDRESS_MASK, PARTITION_BIT, AddressSpace
from repro.memory.partition import (
    ExtendedOrbitScheme,
    HighBitScheme,
    KeyedAddressScheme,
    KeyedOrbitScheme,
    KeyedScheme,
    KeyedXorMaskScheme,
    OrbitScheme,
    PartitionScheme,
    PartitionSchemeError,
    SCHEMES,
    XorMaskScheme,
    create_scheme,
    default_uid_masks,
    scheme_kinds,
)
from repro.memory.corruption import (
    CorruptionSpec,
    apply_corruption,
    corruption_outcomes,
    detectable_by_disjoint_inverses,
    flip_bit,
    overflow_buffer,
    overflow_payload,
    overwrite_low_bytes,
    overwrite_word,
)
from repro.memory.memory_model import (
    WORD_MASK,
    WORD_SIZE,
    MemoryRegion,
    MemoryVariable,
    StackFrame,
)

__all__ = [
    "ADDRESS_MASK",
    "PARTITION_BIT",
    "AddressSpace",
    "CorruptionSpec",
    "ExtendedOrbitScheme",
    "HighBitScheme",
    "KeyedAddressScheme",
    "KeyedOrbitScheme",
    "KeyedScheme",
    "KeyedXorMaskScheme",
    "MemoryRegion",
    "MemoryVariable",
    "OrbitScheme",
    "PartitionScheme",
    "PartitionSchemeError",
    "SCHEMES",
    "StackFrame",
    "WORD_MASK",
    "WORD_SIZE",
    "XorMaskScheme",
    "apply_corruption",
    "corruption_outcomes",
    "create_scheme",
    "default_uid_masks",
    "detectable_by_disjoint_inverses",
    "flip_bit",
    "overflow_buffer",
    "overflow_payload",
    "overwrite_low_bytes",
    "overwrite_word",
    "scheme_kinds",
]
