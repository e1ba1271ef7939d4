"""Instruction-set tagging: per-variant instruction prefixes.

Table 1 of the paper lists the instruction-set tagging variation from the
original N-variant systems work::

    R_0(inst) = 0 || inst          R_0^-1(0 || inst) = inst
    R_1(inst) = 1 || inst          R_1^-1(1 || inst) = inst

Each variant's code is rewritten at build time so that every instruction is
prefixed with that variant's tag byte; the execution engine checks and strips
the tag before executing.  Code injected by an attacker arrives identically
in both variants, so it can carry at most one variant's tag -- the other
variant raises an illegal-instruction fault, which the monitor converts into
an alarm.
"""

from __future__ import annotations

from repro.isa.instructions import INSTRUCTION_SIZE, Instruction, encode_stream
from repro.kernel.errors import IllegalInstructionFault

#: Width of the tag prefix in bytes.
TAG_SIZE = 1

#: Length of one tagged instruction on the wire.
TAGGED_INSTRUCTION_SIZE = TAG_SIZE + INSTRUCTION_SIZE


def tag_byte(variant_index: int) -> int:
    """The tag value for variant *variant_index* (0x00 or 0x01)."""
    if variant_index not in (0, 1):
        raise ValueError("instruction tagging is defined for two variants")
    return variant_index


def tag_stream(instructions: list[Instruction], variant_index: int) -> bytes:
    """Apply ``R_i``: prefix every encoded instruction with the variant tag."""
    tag = bytes([tag_byte(variant_index)])
    return b"".join(tag + instruction.encode() for instruction in instructions)


def untag_stream(tagged: bytes, variant_index: int) -> list[Instruction]:
    """Apply ``R_i^-1``: check and strip tags, decoding the instructions.

    Raises :class:`IllegalInstructionFault` on the first instruction whose
    tag does not match the variant -- the detection event for code-injection
    attacks.
    """
    expected = tag_byte(variant_index)
    if len(tagged) % TAGGED_INSTRUCTION_SIZE:
        raise IllegalInstructionFault(
            f"tagged stream length {len(tagged)} is not a multiple of "
            f"{TAGGED_INSTRUCTION_SIZE}"
        )
    instructions = []
    for offset in range(0, len(tagged), TAGGED_INSTRUCTION_SIZE):
        tag = tagged[offset]
        if tag != expected:
            raise IllegalInstructionFault(
                f"instruction at offset {offset} carries tag {tag}, variant "
                f"{variant_index} expects {expected}"
            )
        raw = tagged[offset + TAG_SIZE : offset + TAGGED_INSTRUCTION_SIZE]
        instructions.append(Instruction.decode(raw))
    return instructions


def inject_untagged(benign_tagged: bytes, injected: list[Instruction], position: int) -> bytes:
    """Model a code-injection attack against a tagged instruction stream.

    The attacker overwrites part of the (tagged) code region with raw,
    untagged instruction bytes -- the attacker does not know where tag bytes
    fall, and even if they did, the same bytes go to both variants.  Returns
    the corrupted stream.
    """
    payload = encode_stream(injected)
    corrupted = bytearray(benign_tagged)
    end = min(len(corrupted), position + len(payload))
    corrupted[position:end] = payload[: end - position]
    return bytes(corrupted)
