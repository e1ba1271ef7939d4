"""The variations exactly as listed in Table 1, in row order.

Kept apart from the package so that importing a variation does not load
instruction tagging, and with it the instruction-set interpreter.
"""

from repro.core.variations.address import AddressPartitioning, ExtendedAddressPartitioning
from repro.core.variations.instruction import InstructionSetTagging
from repro.core.variations.uid import UIDVariation

TABLE1_VARIATIONS = (
    AddressPartitioning,
    ExtendedAddressPartitioning,
    InstructionSetTagging,
    UIDVariation,
)
