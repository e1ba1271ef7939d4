"""Alarm taxonomy for the N-variant monitor.

The paper's security argument ends in exactly one observable event: the
monitor raises an alarm because the variants diverged.  This module defines
the alarm record and the classes of divergence the monitor distinguishes.
Keeping the taxonomy explicit makes the detection benchmarks and the attack
campaign reports precise about *how* each attack was caught.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any


class AlarmType(enum.Enum):
    """How the monitor noticed the divergence."""

    #: Variants issued different system calls at the same lockstep point.
    SYSCALL_MISMATCH = "syscall-mismatch"
    #: Same system call but non-equivalent arguments (after canonicalization).
    ARGUMENT_MISMATCH = "argument-mismatch"
    #: A uid_value / cc_* / cond_chk detection call observed divergent data.
    UID_DIVERGENCE = "uid-divergence"
    #: A cond_chk detection call observed variants taking different branches.
    CONTROL_FLOW_DIVERGENCE = "control-flow-divergence"
    #: One variant raised a hardware-style fault (segfault, illegal instruction).
    VARIANT_FAULT = "variant-fault"
    #: One variant exited or faulted while another kept running.
    LIFECYCLE_DIVERGENCE = "lifecycle-divergence"
    #: Variants returned different data for an output the monitor compared.
    OUTPUT_MISMATCH = "output-mismatch"


@dataclasses.dataclass(frozen=True)
class Alarm:
    """One monitor-detected divergence."""

    alarm_type: AlarmType
    description: str
    syscall: str | None = None
    variant_values: tuple[Any, ...] = ()
    faulting_variant: int | None = None
    lockstep_index: int | None = None

    def describe(self) -> str:
        """Readable one-line description used in reports and logs."""
        parts = [f"[{self.alarm_type.value}] {self.description}"]
        if self.syscall:
            parts.append(f"syscall={self.syscall}")
        if self.faulting_variant is not None:
            parts.append(f"variant={self.faulting_variant}")
        if self.variant_values:
            rendered = ", ".join(repr(v) for v in self.variant_values)
            parts.append(f"values=({rendered})")
        return " ".join(parts)
