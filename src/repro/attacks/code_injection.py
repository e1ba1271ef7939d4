"""Code-injection attacks against the instruction-set tagging variation.

Instruction-set tagging (Table 1) is included in the reproduction so the
model covers all four variations.  The attack model: the attacker manages to
overwrite part of a program's code region with their own machine code.  The
injected bytes are identical in every variant (they arrive through the same
replicated input), so they carry at most one variant's tag; checking the tag
before execution makes at least one variant raise an illegal-instruction
fault, which the monitor reports.
"""

from __future__ import annotations

import dataclasses

from repro.attacks.outcomes import AttackOutcome, classify
from repro.core.variations.instruction import InstructionSetTagging
from repro.isa.instructions import Instruction, Opcode, assemble
from repro.isa.interpreter import Interpreter, MachineState
from repro.isa.tagging import TAGGED_INSTRUCTION_SIZE, inject_untagged, tag_stream
from repro.kernel.errors import IllegalInstructionFault

#: The attacker's payload: load a syscall number and invoke it (think execve).
ATTACK_SYSCALL_NUMBER = 59


def benign_program() -> list[Instruction]:
    """A small benign program: compute a value, store it, halt."""
    return assemble(
        [
            (Opcode.LOADI, 1, 21),
            (Opcode.LOADI, 2, 21),
            (Opcode.ADD, 1, 2),
            (Opcode.LOADI, 3, 64),
            (Opcode.STORE, 3, 1),
            (Opcode.HALT,),
        ]
    )


def attack_payload() -> list[Instruction]:
    """Injected instructions that invoke the attacker's system call."""
    return assemble(
        [
            (Opcode.LOADI, 0, ATTACK_SYSCALL_NUMBER),
            (Opcode.SYSCALL,),
            (Opcode.HALT,),
        ]
    )


@dataclasses.dataclass(frozen=True)
class CodeInjectionAttack:
    """Overwrite the code stream at a fixed offset with raw instructions."""

    name: str = "untagged-code-injection"
    description: str = "inject raw (untagged) instructions over the benign code"
    inject_at_instruction: int = 2

    def corrupted_stream(self, variant_index: int) -> bytes:
        """The variant's tagged code image after the (identical) injection."""
        tagged = tag_stream(benign_program(), variant_index)
        offset = self.inject_at_instruction * TAGGED_INSTRUCTION_SIZE
        return inject_untagged(tagged, attack_payload(), offset)


def run_code_injection_untagged() -> AttackOutcome:
    """Baseline: no tagging at all -- the injection executes the attacker's call."""
    interpreter = Interpreter()
    state = MachineState()
    program = benign_program()
    payload = attack_payload()
    corrupted = program[:2] + payload + program[2 + len(payload):]
    interpreter.run(corrupted, state=state)
    goal = any(number == ATTACK_SYSCALL_NUMBER for number, _ in state.syscall_log)
    return AttackOutcome(
        attack="untagged-code-injection",
        configuration="single-process",
        kind=classify(goal_reached=goal, detected=False),
        goal_reached=goal,
        detected=False,
        detail=f"syscalls executed: {state.syscall_log}",
    )


def run_code_injection_tagged() -> AttackOutcome:
    """Tagged 2-variant case: the identical injection must fault somewhere."""
    attack = CodeInjectionAttack()
    variation = InstructionSetTagging()
    interpreter = Interpreter()

    faulted_variants = []
    attacker_syscall_ran = False
    for index in range(variation.num_variants):
        corrupted = attack.corrupted_stream(index)
        state = MachineState()
        try:
            instructions = variation.untag_program(corrupted, index)
            interpreter.run(instructions, state=state)
        except IllegalInstructionFault:
            faulted_variants.append(index)
            continue
        if any(number == ATTACK_SYSCALL_NUMBER for number, _ in state.syscall_log):
            attacker_syscall_ran = True

    detected = bool(faulted_variants)
    goal = attacker_syscall_ran and not detected
    return AttackOutcome(
        attack=attack.name,
        configuration="2-variant-instruction-tagging",
        kind=classify(goal_reached=goal, detected=detected),
        goal_reached=goal,
        detected=detected,
        detail=f"faulting variants: {faulted_variants}",
    )
