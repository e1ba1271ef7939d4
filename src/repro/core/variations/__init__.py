"""The variation classes, one per diversity family.

* :class:`~repro.core.variations.address.AddressPartitioning` -- disjoint
  address spaces carved by a region scheme: the high-bit split (Cox et al.
  2006), the N-ary top-bits orbit, the offset-extended layout (Bruschi et
  al. 2007) and keyed layouts.
* :class:`~repro.core.variations.instruction.InstructionSetTagging` --
  per-variant instruction tags (Cox et al. 2006).
* :class:`~repro.core.variations.uid.UIDVariation` -- the paper's UID data
  diversity (identity vs XOR 0x7FFFFFFF), and N-ary, keyed and full-flip
  (the rejected Section 3.2 design) masks.
* :class:`~repro.core.variations.fdspace.FdOrbitVariation` -- the same
  orbit over file-descriptor values.

A family's layouts differ only in their masks or scheme: each is a row of
the variation registry (:mod:`repro.api.registry`), whose factory chooses
them and which names the result.  :data:`TABLE1_VARIATIONS` lists Table 1's
rows by registry name.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.core.variations.address": ("AddressPartitioning",),
        "repro.core.variations.base": ("VariationStack",),
        "repro.core.variations.fdspace": ("FdOrbitVariation",),
        "repro.core.variations.instruction": ("InstructionSetTagging",),
        "repro.core.variations.table1": ("TABLE1_VARIATIONS",),
        "repro.core.variations.uid": ("UIDVariation",),
    },
)
