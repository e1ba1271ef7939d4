"""One N-variant system as a resumable, schedulable session.

A session owns everything one lockstep N-variant run needs -- the variant
processes and contexts, the variation stack, the syscall wrapper layer, and a
monitor created fresh for the session (so :class:`~repro.core.monitor.MonitorStats`
never leak between runs).  A session exposes :meth:`NVariantSession.step`:
execute exactly one lockstep round and return the session's state.  That is
the unit the cooperative scheduler interleaves; :meth:`NVariantSession.run`
and :func:`~repro.core.nvariant.nvexec` step one session alone until it
leaves ``RUNNING``.

A round does only the work its system call needs.  The variation stack
declares three footprints -- the calls whose requests it canonicalizes,
whose requests it rewrites for the kernel, and whose results it
re-expresses -- so the overwhelming majority of rounds (read/write/open/
accept/...) skip every per-variation walk: the
:class:`~repro.core.monitor.SyscallComparator` compares the raw requests in
one batched check and passes them to the wrappers unchanged, and the results
go back to the variants as the kernel produced them.  The wrapper layer picks
each call name's execution strategy once and remembers it.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Optional, Sequence

from repro.core.alarm import AlarmType
from repro.core.monitor import Monitor, SyscallComparator
from repro.core.nvariant import (
    NVariantResult,
    Program,
    UIDCodec,
    VariantContext,
    VariantOutcome,
)
from repro.core.variations.base import Variation, VariationStack
from repro.core.wrappers import SyscallWrappers, UnsharedFileRegistry
from repro.interpose import get_table
from repro.kernel.errors import VariantFault
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.libc import Libc
from repro.kernel.process import LIVE_STATES, Process
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult


class SessionState(enum.Enum):
    """Lifecycle of a session under the engine."""

    #: The session has unfinished variants and can accept another ``step()``.
    RUNNING = "running"
    #: Every variant finished and the monitor never forced a stop.
    COMPLETED = "completed"
    #: The monitor stopped the session (the paper's halt-on-divergence policy).
    HALTED = "halted"


# Bound once: attribute access on an Enum class goes through the metaclass's
# ``__getattr__`` hook, several times slower than a module global, and these
# are read every round.
_RUNNING = SessionState.RUNNING
_EXIT = Syscall.EXIT


@dataclasses.dataclass
class _VariantRuntime:
    """Internal per-variant bookkeeping for the lockstep loop."""

    context: VariantContext
    program: Program
    #: ``context.process``, one attribute hop closer for the round loop.
    process: Process
    started: bool = False
    finished: bool = False
    fault: Optional[VariantFault] = None
    return_value: object = None
    pending_result: Optional[SyscallResult] = None
    pending_request: Optional[SyscallRequest] = None


class NVariantSession:
    """One N-variant system, advanced one lockstep round at a time.

    *program_factory* builds one program per variant from its
    :class:`~repro.core.nvariant.VariantContext`.  Each session builds its own
    :class:`~repro.core.monitor.Monitor`, so alarm lists and monitor counters
    are per-session state -- two sessions on the same engine never share or
    accumulate each other's statistics.
    """

    def __init__(
        self,
        kernel: SimulatedKernel,
        program_factory: Callable[[VariantContext], Program],
        variations: Sequence[Variation] = (),
        *,
        num_variants: int = 2,
        halt_on_alarm: bool = True,
        max_rounds: int = 2_000_000,
        name: str = "session",
        interposition: str = "classic",
    ):
        self.kernel = kernel
        self.program_factory = program_factory
        self.variations = VariationStack(list(variations), num_variants)
        self.num_variants = num_variants
        self.halt_on_alarm = halt_on_alarm
        self.max_rounds = max_rounds
        self.name = name
        self.interposition = interposition
        self.table = get_table(interposition)
        self.monitor = Monitor(table=self.table)
        self.comparator = SyscallComparator(self.variations, self.monitor)
        self._result_affected = self.variations.result_syscalls()
        self.rounds = 0
        self.state = SessionState.RUNNING
        self._ticks_consumed = 0
        #: Provenance stamps used by checkpoint/migration (repro.load): the
        #: declarative SystemSpec this session was built from (set by
        #: repro.api.builders.build_session) and the serving-app configuration
        #: (set by repro.load.checkpoint.build_serving_session).  Sessions
        #: wired by hand carry None and cannot be checkpointed.
        self.spec = None
        self.serving = None

        self._unshared_registry = UnsharedFileRegistry(num_variants)
        self._unshared_registry.register_mapping(
            self.variations.setup_unshared_files(kernel.fs)
        )
        self._spawn_runtimes()

    # -- construction helpers --------------------------------------------------

    def _spawn_runtimes(self) -> None:
        """Spawn fresh variant processes, contexts and program instances."""
        self._contexts: list[VariantContext] = []
        processes: list[Process] = []
        for index in range(self.num_variants):
            process = self.kernel.spawn_process(
                f"{self.name}-v{index}",
                address_space=self.variations.make_address_space(index),
            )
            processes.append(process)
            self._contexts.append(
                VariantContext(
                    index=index,
                    process=process,
                    libc=Libc(),
                    uid_codec=self._build_codec(index),
                )
            )
        self.wrappers = SyscallWrappers(
            self.kernel, processes, self._unshared_registry, table=self.table
        )
        self._runtimes = [
            _VariantRuntime(
                context=context, program=self.program_factory(context), process=context.process
            )
            for context in self._contexts
        ]

    def restart(self, *, rotate_keys: bool = True) -> SessionState:
        """Reset the session to run its program again from round zero.

        Any keyed variation scheme is rotated first (the key-rotation-on-
        restart semantics: a restarted fleet faces a fresh secret layout, so
        knowledge an attacker accumulated across probes dies with the old
        session) unless *rotate_keys* is False.  The monitor, comparator and
        per-variant runtimes are rebuilt from scratch; the previous run's
        processes are exited and its alarms discarded.  A rotation also
        rewrites the unshared files (``/etc/passwd-i``, ``/etc/group-i``),
        whose UID columns were encoded under the old key.
        """
        from repro.memory.partition import KeyedScheme

        rotated = False
        if rotate_keys:
            for variation in self.variations:
                rotate = getattr(variation, "rotate_key", None)
                if rotate is not None:
                    rotate()
                    rotated = True
                    continue
                scheme = getattr(variation, "scheme", None)
                if isinstance(scheme, KeyedScheme):
                    scheme.rotate()
                    rotated = True
        for context in self._contexts:
            if context.process.alive:
                context.process.exit(0)
        if rotated:
            self._unshared_registry.register_mapping(
                self.variations.setup_unshared_files(self.kernel.fs)
            )
        self.monitor = Monitor(table=self.table)
        self.comparator = SyscallComparator(self.variations, self.monitor)
        self.rounds = 0
        self._ticks_consumed = 0
        self.state = SessionState.RUNNING
        self._spawn_runtimes()
        return self.state

    def _build_codec(self, index: int) -> UIDCodec:
        from repro.core.variations.uid import UIDVariation

        for variation in self.variations:
            if isinstance(variation, UIDVariation):
                return UIDCodec(
                    encode=lambda value, v=variation, i=index: v.encode(i, value),
                    decode=lambda value, v=variation, i=index: v.decode(i, value),
                )
        return UIDCodec.identity()

    @property
    def contexts(self) -> list[VariantContext]:
        """The per-variant contexts (useful for inspection in tests)."""
        return self._contexts

    @property
    def processes(self) -> list[Process]:
        """The per-variant kernel processes."""
        return [context.process for context in self._contexts]

    @property
    def done(self) -> bool:
        """True once the session has reached a terminal state."""
        return self.state is not _RUNNING

    @property
    def virtual_elapsed(self) -> int:
        """Kernel clock ticks this session's own rounds consumed.

        Metered inside :meth:`step` (not as a wall window over the kernel
        clock), so sessions sharing one kernel never count each other's
        ticks.
        """
        return self._ticks_consumed

    # -- the lockstep round ----------------------------------------------------

    def step(self) -> SessionState:
        """Execute one lockstep round; returns the resulting session state."""
        if self.state is not _RUNNING:
            return self.state
        if self.rounds >= self.max_rounds:
            raise RuntimeError(f"lockstep session exceeded {self.max_rounds} rounds")
        clock_before = self.kernel.clock
        try:
            return self._step_round()
        finally:
            self._ticks_consumed += self.kernel.clock - clock_before

    def _step_round(self) -> SessionState:
        self.rounds += 1
        runtimes = self._runtimes
        self._advance_all(runtimes)

        finished = 0
        faulted = 0
        requests = []
        waiting = False
        for runtime in runtimes:
            if runtime.finished:
                finished += 1
            if runtime.fault is not None:
                faulted += 1
            request = runtime.pending_request
            if request is None:
                waiting = True
            requests.append(request)

        if faulted:
            faulted_runtimes = [r for r in runtimes if r.fault is not None]
            for runtime in faulted_runtimes:
                if not self._already_reported(runtime):
                    self.monitor.report_fault(
                        runtime.context.index, runtime.fault, lockstep_index=self.rounds
                    )
            if self.halt_on_alarm:
                return self.halt()
            for runtime in faulted_runtimes:
                runtime.fault = None  # keep going without re-reporting

        if finished == len(runtimes):
            self.state = SessionState.COMPLETED
            return self.state

        if finished:
            finished_indices = tuple(r.context.index for r in runtimes if r.finished)
            self.monitor.report_lifecycle_divergence(
                "some variants terminated while others kept running",
                lockstep_index=self.rounds,
                variant_values=finished_indices,
            )
            if self.halt_on_alarm:
                return self.halt()
            # Without halting there is nothing sensible to synchronise on.
            self.state = SessionState.COMPLETED
            return self.state

        if waiting:
            return self.state

        alarm = self.comparator.check_round(requests, lockstep_index=self.rounds)
        if alarm is not None and self.halt_on_alarm:
            return self.halt()

        transformed = self.comparator.transform_round(requests)
        raw_results = self.wrappers.execute_round(transformed)
        # Only calls in the stack's declared result footprint can have their
        # results re-expressed; every other result reaches the variant as is.
        result_affected = self._result_affected
        for index, (runtime, request, result) in enumerate(zip(runtimes, requests, raw_results)):
            name = request.name
            if result_affected is None or name in result_affected:
                result = self.variations.transform_result(index, request, result)
            runtime.pending_result = result
            runtime.pending_request = None
            if name is _EXIT or runtime.process.state not in LIVE_STATES:
                runtime.finished = True
                runtime.program.close()
        return self.state

    def run(self) -> NVariantResult:
        """Drive the session alone to completion (the paper's ``nvexec``).

        Resuming a partially stepped session is fine; a session that already
        reached a terminal state cannot run again (its programs are consumed
        generators and its processes have exited), so a repeated ``run()``
        raises instead of silently returning the stale result.
        """
        if self.state is not SessionState.RUNNING:
            raise RuntimeError(
                f"session {self.name!r} already {self.state.value}; "
                "construct a new session to run again"
            )
        if self.rounds == 0:
            # The monitor is fresh from __init__, but callers may have poked
            # counters or alarms between construction and run (the stale-stats
            # regression test does exactly that); a complete run starts from
            # zero regardless.
            self.monitor.reset()
        while self.state is SessionState.RUNNING:
            self.step()
        return self.result()

    def halt(self) -> SessionState:
        """Stop every variant (the paper's halt-on-divergence policy)."""
        for runtime in self._runtimes:
            if not runtime.finished:
                runtime.finished = True
                runtime.program.close()
            process = runtime.context.process
            if process.alive:
                process.fault("halted by monitor after divergence")
        self.state = SessionState.HALTED
        return self.state

    def result(self) -> NVariantResult:
        """Build the :class:`~repro.core.nvariant.NVariantResult` so far."""
        variants = []
        for runtime in self._runtimes:
            process = runtime.context.process
            variants.append(
                VariantOutcome(
                    index=runtime.context.index,
                    exit_code=process.exit_code,
                    fault=process.fault_reason if runtime.fault or process.fault_reason else None,
                    return_value=runtime.return_value,
                    syscall_count=process.stats.syscall_count,
                )
            )
        return NVariantResult(
            alarms=list(self.monitor.alarms),
            variants=variants,
            lockstep_rounds=self.rounds,
            wrapper_stats=self.wrappers.stats,
            monitor=self.monitor,
        )

    # -- loop internals --------------------------------------------------------

    def _advance_all(self, runtimes: list[_VariantRuntime]) -> None:
        """Advance every unfinished variant to its next system call."""
        for runtime in runtimes:
            if runtime.finished or runtime.pending_request is not None:
                continue
            try:
                if not runtime.started:
                    runtime.pending_request = runtime.program.send(None)
                    runtime.started = True
                else:
                    runtime.pending_request = runtime.program.send(runtime.pending_result)
            except StopIteration as stop:
                runtime.return_value = stop.value
                runtime.finished = True
                if runtime.context.process.alive and runtime.context.process.exit_code is None:
                    runtime.context.process.exit(0)
            except VariantFault as fault:
                runtime.fault = fault
                runtime.finished = True
                runtime.context.process.fault(f"{fault.kind}: {fault.message}")

    def _already_reported(self, runtime: _VariantRuntime) -> bool:
        return any(
            alarm.alarm_type is AlarmType.VARIANT_FAULT
            and alarm.faulting_variant == runtime.context.index
            for alarm in self.monitor.alarms
        )
