"""Miniature instruction-set substrate for the instruction-tagging variation.

Provides a tiny register machine (:mod:`repro.isa.instructions`,
:mod:`repro.isa.interpreter`) and the per-variant instruction tagging scheme
(:mod:`repro.isa.tagging`) listed in Table 1 of the paper.
"""

from repro.isa.instructions import (
    INSTRUCTION_SIZE,
    Instruction,
    Opcode,
    REGISTER_COUNT,
    assemble,
    decode_stream,
    encode_stream,
)
from repro.isa.interpreter import Interpreter, MachineState
from repro.isa.tagging import (
    TAG_SIZE,
    TAGGED_INSTRUCTION_SIZE,
    inject_untagged,
    retag_stream,
    tag_byte,
    tag_stream,
    untag_stream,
)

__all__ = [
    "INSTRUCTION_SIZE",
    "Instruction",
    "Interpreter",
    "MachineState",
    "Opcode",
    "REGISTER_COUNT",
    "TAGGED_INSTRUCTION_SIZE",
    "TAG_SIZE",
    "assemble",
    "decode_stream",
    "encode_stream",
    "inject_untagged",
    "retag_stream",
    "tag_byte",
    "tag_stream",
    "untag_stream",
]
