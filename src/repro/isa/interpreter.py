"""Interpreter for the miniature ISA, with optional tag checking.

The interpreter is the *target interpreter* (in the paper's interpreters
model, Section 2.1) for the instruction-set tagging variation: it sits behind
the inverse reexpression function (:func:`repro.isa.tagging.untag_stream`)
and executes only instructions that carried the variant's tag.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.isa.instructions import Instruction, Opcode, REGISTER_COUNT
from repro.kernel.errors import IllegalInstructionFault, SegmentationFault

#: The steps :meth:`Interpreter.run` takes before it calls a program runaway.
MAX_STEPS = 10_000


@dataclasses.dataclass
class MachineState:
    """Registers, a small flat data memory, and a halt flag."""

    registers: list[int] = dataclasses.field(default_factory=lambda: [0] * REGISTER_COUNT)
    memory: bytearray = dataclasses.field(default_factory=lambda: bytearray(4096))
    pc: int = 0
    halted: bool = False
    syscall_log: list[tuple[int, tuple[int, ...]]] = dataclasses.field(default_factory=list)

    def read_register(self, index: int) -> int:
        """Read register *index*."""
        if not 0 <= index < REGISTER_COUNT:
            raise IllegalInstructionFault(f"register r{index} does not exist")
        return self.registers[index]

    def write_register(self, index: int, value: int) -> None:
        """Write register *index* (32-bit wraparound)."""
        if not 0 <= index < REGISTER_COUNT:
            raise IllegalInstructionFault(f"register r{index} does not exist")
        self.registers[index] = value & 0xFFFFFFFF

    def load(self, address: int) -> int:
        """Load a 32-bit word from data memory."""
        if not 0 <= address <= len(self.memory) - 4:
            raise SegmentationFault(f"load from 0x{address:08x}", address=address)
        return int.from_bytes(self.memory[address : address + 4], "little")

    def store(self, address: int, value: int) -> None:
        """Store a 32-bit word to data memory."""
        if not 0 <= address <= len(self.memory) - 4:
            raise SegmentationFault(f"store to 0x{address:08x}", address=address)
        self.memory[address : address + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")


class Interpreter:
    """Executes decoded instructions against a :class:`MachineState`."""

    def __init__(self, syscall_handler: Optional[Callable[[int, tuple[int, ...]], int]] = None):
        self.syscall_handler = syscall_handler

    def execute(self, state: MachineState, instruction: Instruction) -> None:
        """Execute a single instruction, mutating *state*."""
        opcode = instruction.opcode
        if opcode is Opcode.NOP:
            pass
        elif opcode is Opcode.LOADI:
            state.write_register(instruction.a, instruction.b)
        elif opcode is Opcode.MOV:
            state.write_register(instruction.a, state.read_register(instruction.b))
        elif opcode is Opcode.ADD:
            total = state.read_register(instruction.a) + state.read_register(instruction.b)
            state.write_register(instruction.a, total)
        elif opcode is Opcode.SUB:
            total = state.read_register(instruction.a) - state.read_register(instruction.b)
            state.write_register(instruction.a, total)
        elif opcode is Opcode.XOR:
            total = state.read_register(instruction.a) ^ state.read_register(instruction.b)
            state.write_register(instruction.a, total)
        elif opcode is Opcode.LOAD:
            address = state.read_register(instruction.b)
            state.write_register(instruction.a, state.load(address))
        elif opcode is Opcode.STORE:
            address = state.read_register(instruction.a)
            state.store(address, state.read_register(instruction.b))
        elif opcode is Opcode.JMP:
            state.pc = instruction.a
            return
        elif opcode is Opcode.JZ:
            if state.read_register(instruction.b) == 0:
                state.pc = instruction.a
                return
        elif opcode is Opcode.SYSCALL:
            number = state.read_register(0)
            args = tuple(state.read_register(i) for i in range(1, 4))
            state.syscall_log.append((number, args))
            if self.syscall_handler is not None:
                state.write_register(0, self.syscall_handler(number, args) & 0xFFFFFFFF)
        elif opcode is Opcode.HALT:
            state.halted = True
        else:  # pragma: no cover - Opcode enum is exhaustive
            raise IllegalInstructionFault(f"unknown opcode {opcode}")
        state.pc += 1

    def run(
        self,
        instructions: list[Instruction],
        *,
        state: Optional[MachineState] = None,
    ) -> MachineState:
        """Run a decoded instruction list until HALT or :data:`MAX_STEPS` steps."""
        state = state if state is not None else MachineState()
        steps = 0
        while not state.halted and 0 <= state.pc < len(instructions):
            if steps >= MAX_STEPS:
                raise RuntimeError("interpreter exceeded maximum steps")
            self.execute(state, instructions[state.pc])
            steps += 1
        return state
