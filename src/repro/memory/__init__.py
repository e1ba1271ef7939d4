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
