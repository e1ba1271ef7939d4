"""The N-variant monitor.

The monitor observes every variant at system-call granularity (Section 3.1)
and raises an alarm whenever the variants are not in equivalent states:

* different system calls at the same lockstep point,
* the same call with non-equivalent arguments (compared *after* each
  variant's canonicalization function has been applied, so representation
  differences introduced by the reexpression functions do not trigger false
  alarms),
* a detection call (Table 2) observing divergent UID data or divergent
  control flow,
* a variant raising a hardware-style fault (segmentation fault, illegal
  instruction), or
* one variant terminating while another keeps running.

The monitor is deliberately passive: it classifies and records divergences;
the lockstep engine decides what to do about them (the default policy halts
the system, which is the paper's behaviour).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.core.alarm import Alarm, AlarmType
from repro.interpose import CLASSIC_TABLE, InterpositionTable
from repro.kernel.errors import VariantFault
from repro.kernel.syscalls import Syscall, SyscallRequest


@dataclasses.dataclass
class MonitorStats:
    """Counters describing how much checking the monitor performed.

    ``alarm_breakdown`` maps syscall name (or alarm-type value for alarms
    without a syscall, e.g. variant faults) to the number of alarms raised
    there -- the per-syscall divergence breakdown experiment telemetry
    surfaces.
    """

    lockstep_points: int = 0
    syscalls_compared: int = 0
    detection_calls_checked: int = 0
    alarms_raised: int = 0
    fast_path_rounds: int = 0
    alarm_breakdown: dict[str, int] = dataclasses.field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter (fresh accounting for a new run).

        Structural on purpose: a counter added to the dataclass can never be
        forgotten here and survive a reset.  Fields with a default factory
        (the breakdown dict) reset to a fresh instance of it.
        """
        for field in dataclasses.fields(self):
            if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                setattr(self, field.name, field.default_factory())  # type: ignore[misc]
            else:
                setattr(self, field.name, 0)


class Monitor:
    """Compares canonicalized variant behaviour and records alarms.

    Classification families (detection calls, UID parameters and
    comparisons, output-tagged calls) come from the active
    :class:`~repro.interpose.InterpositionTable`; the default is the
    ``"classic"`` table, which reproduces the historical frozen-set
    behaviour exactly.
    """

    def __init__(self, table: InterpositionTable | None = None) -> None:
        self.table = table if table is not None else CLASSIC_TABLE
        self.alarms: list[Alarm] = []
        self.stats = MonitorStats()

    def reset(self) -> None:
        """Forget recorded alarms and zero the stats counters."""
        self.alarms.clear()
        self.stats.reset()

    # -- outcome ------------------------------------------------------------

    @property
    def attack_detected(self) -> bool:
        """True once any alarm has been raised."""
        return bool(self.alarms)

    def first_alarm(self) -> Optional[Alarm]:
        """The first alarm raised, if any."""
        return self.alarms[0] if self.alarms else None

    def _record(self, alarm: Alarm) -> Alarm:
        self.alarms.append(alarm)
        self.stats.alarms_raised += 1
        key = alarm.syscall if alarm.syscall else alarm.alarm_type.value
        breakdown = self.stats.alarm_breakdown
        breakdown[key] = breakdown.get(key, 0) + 1
        return alarm

    # -- syscall comparison ------------------------------------------------------

    def check_syscalls(
        self,
        canonical_requests: Sequence[SyscallRequest],
        *,
        lockstep_index: int | None = None,
    ) -> Optional[Alarm]:
        """Compare one lockstep round of canonicalized requests.

        Returns the alarm raised, or ``None`` when the variants are
        equivalent at this point.
        """
        stats = self.stats
        stats.lockstep_points += 1
        stats.syscalls_compared += len(canonical_requests)

        first = canonical_requests[0]
        name = first.name
        first_args = first.args
        equivalent = True
        for request in canonical_requests:
            if request.name is not name:
                return self._record(
                    Alarm(
                        alarm_type=AlarmType.SYSCALL_MISMATCH,
                        description="variants issued different system calls",
                        syscall="/".join(
                            sorted({r.name.value for r in canonical_requests})
                        ),
                        variant_values=tuple(r.describe() for r in canonical_requests),
                        lockstep_index=lockstep_index,
                    )
                )
            if request.args != first_args:
                equivalent = False

        if name in self.table.detection_syscalls:
            stats.detection_calls_checked += 1
        if equivalent:
            return None

        args = [request.args for request in canonical_requests]
        alarm_type = self._classify_argument_mismatch(name)
        return self._record(
            Alarm(
                alarm_type=alarm_type,
                description=self._mismatch_description(name),
                syscall=name.value,
                variant_values=tuple(args),
                lockstep_index=lockstep_index,
            )
        )

    def _classify_argument_mismatch(self, name: Syscall) -> AlarmType:
        if name is Syscall.COND_CHK:
            return AlarmType.CONTROL_FLOW_DIVERGENCE
        if name is Syscall.UID_VALUE or name in self.table.uid_comparison_syscalls:
            return AlarmType.UID_DIVERGENCE
        if name in self.table.uid_parameter_syscalls:
            return AlarmType.UID_DIVERGENCE
        if name in self.table.output_syscalls:
            return AlarmType.OUTPUT_MISMATCH
        return AlarmType.ARGUMENT_MISMATCH

    def _mismatch_description(self, name: Syscall) -> str:
        if name is Syscall.COND_CHK:
            return "variants evaluated a UID-dependent condition differently"
        if name is Syscall.UID_VALUE or name in self.table.uid_comparison_syscalls:
            return "variants observed non-equivalent UID values"
        if name in self.table.uid_parameter_syscalls:
            return "variants passed non-equivalent UIDs to a credential call"
        if name in self.table.output_syscalls:
            return "variants attempted divergent externally-visible behaviour"
        return "variants passed non-equivalent arguments"

    # -- faults and lifecycle -------------------------------------------------------

    def report_fault(
        self,
        variant_index: int,
        fault: VariantFault,
        *,
        lockstep_index: int | None = None,
    ) -> Alarm:
        """Record that a variant trapped (segfault, illegal instruction, kill)."""
        return self._record(
            Alarm(
                alarm_type=AlarmType.VARIANT_FAULT,
                description=f"variant {variant_index} faulted: {fault.kind}: {fault.message}",
                faulting_variant=variant_index,
                lockstep_index=lockstep_index,
            )
        )

    def report_lifecycle_divergence(
        self,
        description: str,
        *,
        lockstep_index: int | None = None,
        variant_values: tuple = (),
    ) -> Alarm:
        """Record that variants disagreed about continuing vs terminating."""
        return self._record(
            Alarm(
                alarm_type=AlarmType.LIFECYCLE_DIVERGENCE,
                description=description,
                variant_values=variant_values,
                lockstep_index=lockstep_index,
            )
        )


class SyscallComparator:
    """The layered lockstep round: canonicalize and compare, then transform.

    Every lockstep round the engine must (a) canonicalize each variant's
    request so representation differences don't trigger false alarms and
    (b) inverse-reexpress each request's diversified arguments before the
    kernel sees them.  A session runs its uniform rounds straight from a
    per-name :class:`~repro.engine.session.RoundPlan`, which already holds
    the name's hook chains; the comparator is the general form, used for
    the rounds a plan cannot describe -- variants that issued different
    calls, or a call compared raw whose arguments differ.  It walks the
    variation stack under each request's own name and hands the result to
    :meth:`Monitor.check_syscalls`, so every alarm is classified and
    rendered by the monitor alone.
    """

    def __init__(self, variations: "VariationStack", monitor: Monitor):
        self.variations = variations
        self.monitor = monitor

    def check_round(
        self,
        requests: Sequence[SyscallRequest],
        *,
        lockstep_index: int | None = None,
    ) -> Optional[Alarm]:
        """Canonicalize every request through the stack and compare the round."""
        canonical = [
            self.variations.canonicalize_request(index, request)
            for index, request in enumerate(requests)
        ]
        return self.monitor.check_syscalls(canonical, lockstep_index=lockstep_index)

    def transform_round(self, requests: Sequence[SyscallRequest]) -> list[SyscallRequest]:
        """Apply each variant's outgoing request transformation for one round.

        Every request's own name is used (not just variant 0's): a
        mixed-name round executed under ``halt_on_alarm=False`` must still
        decode the UID-carrying calls of the variants that issued them.
        """
        return [
            self.variations.transform_request(index, request)
            for index, request in enumerate(requests)
        ]
