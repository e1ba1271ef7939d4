"""The four variations of Table 1 plus the ablation variants.

* :class:`~repro.core.variations.address.AddressPartitioning` -- disjoint
  high-bit address spaces (Cox et al. 2006).
* :class:`~repro.core.variations.address.ExtendedAddressPartitioning` --
  partitioning plus an extra offset (Bruschi et al. 2007).
* :class:`~repro.core.variations.instruction.InstructionSetTagging` --
  per-variant instruction tags (Cox et al. 2006).
* :class:`~repro.core.variations.uid.UIDVariation` -- the paper's UID data
  diversity (identity vs XOR 0x7FFFFFFF).
* :class:`~repro.core.variations.uid.FullFlipUIDVariation` -- the rejected
  XOR 0xFFFFFFFF design, kept for the Section 3.2 ablation.
* :class:`~repro.core.variations.address.OrbitAddressPartitioning` /
  :class:`~repro.core.variations.uid.OrbitUIDVariation` -- the N-ary
  generalisations of both families, sharing the
  :class:`~repro.memory.partition.PartitionScheme` protocol.
* :class:`~repro.core.variations.address.KeyedAddressPartitioning` /
  :class:`~repro.core.variations.uid.KeyedUIDVariation` -- the keyed
  variants: secret layouts/masks drawn from ``key_bits`` of entropy,
  rotated on session restart (see :mod:`repro.security`).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.core.variations.address": (
            "AddressPartitioning",
            "ExtendedAddressPartitioning",
            "OrbitAddressPartitioning",
        ),
        "repro.core.variations.base": ("VariationStack",),
        "repro.core.variations.fdspace": ("FdOrbitVariation",),
        "repro.core.variations.instruction": ("InstructionSetTagging",),
        "repro.core.variations.table1": ("TABLE1_VARIATIONS",),
        "repro.core.variations.uid": (
            "FullFlipUIDVariation",
            "KeyedUIDVariation",
            "OrbitUIDVariation",
            "UIDVariation",
        ),
    },
)
