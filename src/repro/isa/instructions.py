"""A tiny register instruction set.

Instruction-set tagging (Table 1 of the paper, introduced in the original
N-variant systems work) prepends a per-variant tag bit to every instruction;
the tag is checked and stripped before execution, so injected code -- which
necessarily carries the *same* bytes in both variants -- fails the tag check
in at least one of them.

To reproduce that variation we need an instruction stream to tag.  This
module defines a deliberately small register machine: enough to write the
attack payloads the paper cares about (open a file, spawn a shell, write to a
descriptor) and the benign snippets used in tests, without becoming a second
project.  Instructions are encoded to bytes so that tags are a concrete
representation-level transformation, exactly as in the paper.
"""

from __future__ import annotations

import dataclasses
import enum


class Opcode(enum.IntEnum):
    """Operation codes of the miniature ISA."""

    NOP = 0x00
    LOADI = 0x01      # rd <- immediate
    MOV = 0x02        # rd <- rs
    ADD = 0x03        # rd <- rd + rs
    SUB = 0x04        # rd <- rd - rs
    XOR = 0x05        # rd <- rd ^ rs
    LOAD = 0x06       # rd <- memory[rs]
    STORE = 0x07      # memory[rd] <- rs
    JMP = 0x08        # pc <- target
    JZ = 0x09         # if rs == 0: pc <- target
    SYSCALL = 0x0A    # invoke kernel service in r0 with args r1..r3
    HALT = 0x0F


#: Number of general-purpose registers.
REGISTER_COUNT = 8

#: Encoded instruction length in bytes (without any tag).
INSTRUCTION_SIZE = 4


@dataclasses.dataclass(frozen=True)
class Instruction:
    """One decoded instruction: opcode plus up to two small operands."""

    opcode: Opcode
    a: int = 0
    b: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.opcode, Opcode):
            object.__setattr__(self, "opcode", Opcode(self.opcode))
        for name in ("a", "b"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFF:
                raise ValueError(f"operand {name}={value} out of range [0, 4095]")

    def encode(self) -> bytes:
        """Encode to the 4-byte wire format: opcode, a (12 bits), b (12 bits)."""
        packed = (int(self.opcode) << 24) | (self.a << 12) | self.b
        return packed.to_bytes(INSTRUCTION_SIZE, "big")

    @classmethod
    def decode(cls, raw: bytes) -> "Instruction":
        """Decode a 4-byte encoding back into an :class:`Instruction`."""
        if len(raw) != INSTRUCTION_SIZE:
            raise ValueError(f"expected {INSTRUCTION_SIZE} bytes, got {len(raw)}")
        packed = int.from_bytes(raw, "big")
        opcode = Opcode((packed >> 24) & 0xFF)
        a = (packed >> 12) & 0xFFF
        b = packed & 0xFFF
        return cls(opcode, a, b)

    def describe(self) -> str:
        """Readable rendering used in traces and alarm messages."""
        return f"{self.opcode.name} {self.a}, {self.b}"


def assemble(program: list[tuple]) -> list[Instruction]:
    """Assemble ``(opcode, a, b)`` tuples into instructions.

    Missing operands default to zero, so ``[(Opcode.NOP,), (Opcode.HALT,)]``
    is accepted.
    """
    instructions = []
    for entry in program:
        opcode, *operands = entry
        a = operands[0] if len(operands) > 0 else 0
        b = operands[1] if len(operands) > 1 else 0
        instructions.append(Instruction(Opcode(opcode), a, b))
    return instructions


def encode_stream(instructions: list[Instruction]) -> bytes:
    """Encode a list of instructions into a flat byte stream (no tags)."""
    return b"".join(instruction.encode() for instruction in instructions)
