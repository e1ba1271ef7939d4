"""One N-variant system as a resumable, schedulable session.

A session owns everything one lockstep N-variant run needs -- the variant
processes and contexts, the variation stack, the syscall wrapper layer, and a
monitor created fresh for the session (so :class:`~repro.core.monitor.MonitorStats`
never leak between runs).  A session exposes :meth:`NVariantSession.step`:
execute exactly one lockstep round and return the session's state.  That is
the unit the cooperative scheduler interleaves; :meth:`NVariantSession.run`
and :func:`~repro.core.nvariant.nvexec` step one session alone until it
leaves ``RUNNING``.

A round's work depends on its call name alone, so a session resolves one
:class:`RoundPlan` per name on first use and keeps it until its next
restart: raw or canonical comparison, detection call or not, the
canonicalize/transform/result hook chains, and the wrapper strategy.  The
chains are per variant: variant *i*'s chain holds each variation that
declares the name in that hook's footprint and is not the identity at *i*
(:meth:`~repro.core.variations.base.Variation.identity_variants`), and a
variant whose chain is empty runs no hook at all -- variant 0 of every
public UID scheme.  Everything but the hooks themselves depends only on the
stack's declarations, its identity variants and the interposition table,
so it is worked out once per process for each such combination and shared
by every session built alike (every cell of a corpus spec, every session of
a fleet); a session binds only its own variations' hooks, for the few names
that have any.

A *uniform* round (every variant issued the same name) runs straight from
the plan; for the read/write/open/accept bulk of a workload every chain is
empty, so that is one compare loop and one kernel call.  A hooked round
compares its canonical requests in place and calls
:meth:`~repro.core.monitor.Monitor.check_syscalls` only when they differ,
so the monitor alone classifies and records every alarm.  A mixed-name
round, or a raw-compared round whose arguments differ, takes the layered
path (:class:`~repro.core.monitor.SyscallComparator`,
:meth:`~repro.core.wrappers.SyscallWrappers.execute_round`,
:meth:`~repro.core.variations.base.VariationStack.transform_result`).  Every
path moves every monitor and wrapper counter identically.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import Callable, NamedTuple, Optional

from repro.core.monitor import Monitor, SyscallComparator
from repro.core.nvariant import (
    NVariantResult,
    Program,
    UIDCodec,
    VariantContext,
    VariantOutcome,
)
from repro.core.variations.base import StackShape, Variation, VariationStack
from repro.core.wrappers import Strategy, SyscallWrappers, UnsharedFileRegistry, strategy_for
from repro.interpose import InterpositionTable, get_table
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


class RoundLimitError(RuntimeError):
    """A session was stepped past its ``max_rounds`` budget."""


#: A plan's hook chains for one hook: ``(variant index, hooks)`` for each
#: variant whose chain is not empty, in variant order.
Chains = tuple[tuple[int, tuple[Callable, ...]], ...]


class RoundPlan(NamedTuple):
    """Everything a uniform round of one call name needs, resolved once.

    Each chain field lists ``(index, hooks)`` only for the variants that
    run a hook: variant *index*'s hooks are the session's own, bound at the
    stack positions its :class:`~repro.core.variations.base.StackShape`
    gives (results in reverse stack order), less every variation that is
    the identity at *index*.  A variant left out keeps its request and its
    result as they are.  ``strategy`` is called unbound with the session's
    current wrappers.  A plan holds no stats object, so rebuilding the
    monitor or the wrappers never leaves it stale, and a plan whose chains
    are all empty holds nothing of any session, so sessions built alike
    share it.  The round compares the canonical requests itself and calls
    the monitor only on a mismatch.
    """

    #: The name is outside the canonicalization footprint: compare raw args.
    fast: bool
    #: The name is one of the interposition table's detection calls.
    detection: bool
    canonicalize: Chains
    transform: Chains
    result: Chains
    strategy: Strategy
    #: The canonical requests are also the outgoing ones
    #: (:meth:`~repro.core.variations.base.VariationStack.shares_rewrite`).
    shared: bool


# Bound once: attribute access on an Enum class goes through the metaclass's
# ``__getattr__`` hook, several times slower than a module global, and these
# are read every round.
_RUNNING = SessionState.RUNNING
_EXIT = Syscall.EXIT


def _rewrite(chains: Chains, requests: list[SyscallRequest]) -> list[SyscallRequest]:
    """*requests* with each listed variant's request passed through its hooks, in order."""
    rewritten = requests.copy()
    for index, chain in chains:
        request = rewritten[index]
        for hook in chain:
            request = hook(index, request)
        rewritten[index] = request
    return rewritten


#: Per hook, ``(variant index, stack positions)`` for each variant that runs
#: one: a plan's chains before a session binds them.
_Layout = tuple[tuple[int, tuple[int, ...]], ...]
#: What a shared plan book holds per name: the plan, and for a name with hooks
#: the layout of its canonicalize, transform and result chains (the plan's
#: own chains are then empty until a session binds them).
_PlanEntry = tuple[RoundPlan, Optional[tuple[_Layout, _Layout, _Layout]]]
#: The hooks of a plan's three chain fields, in field order, each with the
#: step its chain walks the stack in (results in reverse stack order).
_HOOKS = (("canonicalize_request", 1), ("transform_request", 1), ("transform_result", -1))


@functools.lru_cache(maxsize=128)
def _plan_book(
    shape: StackShape,
    table: InterpositionTable,
    num_variants: int,
    identities: tuple[frozenset[int], ...],
) -> dict[Syscall, _PlanEntry]:
    """The plan entries every session of this stack and table shares, filled on first use.

    A plan depends on nothing else: the declarations fix the chains'
    positions, whether the name compares raw and whether the rewrite is
    shared; *identities* (each stack position's
    :meth:`~repro.core.variations.base.Variation.identity_variants`) fix
    which variants run which of them; the table fixes the detection flag
    and the wrapper strategy.  Neither a session nor a variation nor a key
    is held, and the cache is bounded.
    """
    return {}


def _resolve_plan(
    shape: StackShape,
    table: InterpositionTable,
    num_variants: int,
    identities: tuple[frozenset[int], ...],
    name: Syscall,
) -> _PlanEntry:
    """The shareable entry of *name*'s plan (see :func:`_plan_book`)."""
    plan = RoundPlan(
        fast=name not in shape.unions["canonicalize_request"],
        detection=name in table.detection_syscalls,
        canonicalize=(),
        transform=(),
        result=(),
        strategy=strategy_for(table, name),
        shared=shape.shares_rewrite(name),
    )
    layouts = []
    for hook, step in _HOOKS:
        positions = shape.positions(hook, name)[::step]
        layout = []
        for index in range(num_variants):
            kept = tuple([position for position in positions if index not in identities[position]])
            if kept:
                layout.append((index, kept))
        layouts.append(tuple(layout))
    return plan, tuple(layouts) if any(layouts) else None


@dataclasses.dataclass
class _VariantRuntime:
    """Internal per-variant bookkeeping for the lockstep loop."""

    context: VariantContext
    program: Program
    #: ``context.process``, one attribute hop closer for the round loop.
    process: Process
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
        #: The round plan of each call name this run has met.
        self._plans: dict[Syscall, RoundPlan] = {}
        #: This session's bound hook chain of each (hook, stack positions)
        #: pair: a bound hook reads the key when called, so it outlives a rekey.
        self._chains: dict[tuple[str, tuple[int, ...]], tuple[Callable, ...]] = {}
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
        self._start()

    # -- construction helpers --------------------------------------------------

    def _start(self) -> None:
        """Start a run at round zero: fresh monitor, plans, processes and programs."""
        self.monitor = Monitor(table=self.table)
        self._plans.clear()
        #: What the plans of every session of this stack, identity variants
        #: and table share (the identities are read again after any rekey).
        self._book_key = (
            self.variations.shape,
            self.table,
            self.num_variants,
            self.variations.identity_variants(),
        )
        self._book = _plan_book(*self._book_key)
        self.rounds = 0
        self._ticks_consumed = 0
        self.state = SessionState.RUNNING
        self._contexts: list[VariantContext] = []
        processes: list[Process] = []
        for index, codec in enumerate(self._build_codecs()):
            process = self.kernel.spawn_process(
                f"{self.name}-v{index}",
                address_space=self.variations.make_address_space(index),
            )
            processes.append(process)
            self._contexts.append(
                VariantContext(index=index, process=process, libc=Libc(), uid_codec=codec)
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

        Every keyed variation draws a fresh key first, through
        :meth:`~repro.core.variations.base.Variation.rekey` (a restarted
        fleet faces a fresh secret layout, so knowledge an attacker
        accumulated across probes dies with the old session), unless
        *rotate_keys* is False.  The monitor, round plans, per-variant
        runtimes and UID codecs are all built anew (the plans re-bind this
        session's hooks from the shared entries, which hold no key, so a
        rotated key takes effect); the previous run's processes are exited
        and its alarms discarded.  A rotation also rewrites the unshared
        files (``/etc/passwd-i``, ``/etc/group-i``), whose UID columns were
        encoded under the old key.
        """
        rotated = False
        if rotate_keys:
            for variation in self.variations:
                rotated |= variation.rekey()
        for context in self._contexts:
            if context.process.alive:
                context.process.exit(0)
        if rotated:
            self._unshared_registry.register_mapping(
                self.variations.setup_unshared_files(self.kernel.fs)
            )
        self._start()
        return self.state

    def _build_codecs(self) -> list[UIDCodec]:
        """Each variant's UID codec, in variant order."""
        from repro.core.variations.uid import UIDVariation

        for variation in self.variations.variations:
            if isinstance(variation, UIDVariation):
                # Bound to this run's key: only ``restart`` rotates, and it rebuilds the codecs.
                return [
                    UIDCodec(encode=function.forward, decode=function.inverse)
                    for function in variation.reexpressions()
                ]
        return [UIDCodec.identity()] * self.num_variants

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
        """Execute one lockstep round (none once the session ended); return the state."""
        if self.state is not _RUNNING:
            return self.state
        if self.rounds >= self.max_rounds:
            raise RoundLimitError(f"lockstep session exceeded {self.max_rounds} rounds")
        kernel = self.kernel
        clock_before = kernel.clock
        try:
            self.rounds += 1
            runtimes = self._runtimes
            # Advance every unfinished variant to its next system call.
            requests = []
            trapped = True
            for runtime in runtimes:
                request = runtime.pending_request
                if request is None and not runtime.finished:
                    try:
                        # The first send is None, which starts the generator.
                        request = runtime.program.send(runtime.pending_result)
                    except StopIteration as stop:
                        runtime.return_value = stop.value
                        runtime.finished = True
                        process = runtime.process
                        if process.alive and process.exit_code is None:
                            process.exit(0)
                    except VariantFault as fault:
                        # Kept without its traceback and chained context:
                        # the traceback holds this frame, and with it the
                        # session, so keeping it would make the session cyclic.
                        fault.__traceback__ = fault.__context__ = fault.__cause__ = None
                        runtime.fault = fault
                        runtime.finished = True
                        runtime.process.fault(f"{fault.kind}: {fault.message}")
                    else:
                        runtime.pending_request = request
                if request is None:
                    trapped = False
                requests.append(request)
            if not trapped:
                return self._untrapped_round(runtimes)

            first = requests[0]
            name = first.name
            fast, detection, canonicalize, transform, result_hooks, strategy, shared = (
                self._plans.get(name) or self.round_plan(name)
            )
            args = first.args
            for request in requests:
                if request.name is not name or fast and request.args != args:
                    return self._layered_round(runtimes, requests)
            matched = True
            if not fast:
                canonical = _rewrite(canonicalize, requests)
                args = canonical[0].args
                for request in canonical:
                    if request.args != args:
                        matched = False
                        break
            if matched:
                # The counters Monitor.check_syscalls moves for an equivalent round.
                stats = self.monitor.stats
                stats.lockstep_points += 1
                stats.syscalls_compared += len(requests)
                if fast:
                    stats.fast_path_rounds += 1
                if detection:
                    stats.detection_calls_checked += 1
            else:
                # Only a mismatch reaches the monitor, which classifies and records it.
                self.monitor.check_syscalls(canonical, lockstep_index=self.rounds)
                if self.halt_on_alarm:
                    return self.halt()

            if shared:
                outgoing = canonical
            elif transform:
                outgoing = _rewrite(transform, requests)
            else:
                outgoing = requests
            wrappers = self.wrappers
            if len(outgoing) != len(wrappers.processes):
                raise ValueError("one request per variant is required")
            wrappers.stats.checks += 1
            results = strategy(wrappers, outgoing)

            # Every strategy returns a fresh list, so it is rewritten in place.
            for index, chain in result_hooks:
                request = requests[index]
                result = results[index]
                for hook in chain:
                    result = hook(index, request, result)
                results[index] = result
            exiting = name is _EXIT
            for runtime, result in zip(runtimes, results):
                runtime.pending_result = result
                runtime.pending_request = None
                if exiting or runtime.process.state not in LIVE_STATES:
                    runtime.finished = True
                    runtime.program.close()
            return self.state
        finally:
            self._ticks_consumed += kernel.clock - clock_before

    def round_plan(self, name: Syscall) -> RoundPlan:
        """The plan a uniform round of *name* runs from, resolved on first use.

        Sessions of one stack shape, identity variants and table share what
        a plan holds (:func:`_plan_book`).  A plan with no hook to run is
        shared outright; for a name with hooks the shared entry holds each
        variant's stack positions, and this session binds its own
        variations' hooks at them (each distinct chain once a session), so
        no shared plan holds a hook bound to one session's key.
        """
        plan = self._plans.get(name)
        if plan is None:
            entry = self._book.get(name)
            if entry is None:
                entry = self._book[name] = _resolve_plan(*self._book_key, name)
            plan, layouts = entry
            if layouts is not None:
                bound = self._chains
                fields = []
                for (hook, _), layout in zip(_HOOKS, layouts):
                    chains = []
                    for index, positions in layout:
                        chain = bound.get((hook, positions))
                        if chain is None:
                            chain = bound[hook, positions] = self.variations.bind(hook, positions)
                        chains.append((index, chain))
                    fields.append(tuple(chains))
                plan = RoundPlan(plan.fast, plan.detection, *fields, plan.strategy, plan.shared)
            self._plans[name] = plan
        return plan

    def _layered_round(
        self, runtimes: list[_VariantRuntime], requests: list[SyscallRequest]
    ) -> SessionState:
        """A round no plan covers: mixed names, or raw-compared args that differ.

        Layer by layer, so the monitor alone classifies the alarm, and each
        request (under ``halt_on_alarm=False``) is rewritten under its own name.
        """
        comparator = SyscallComparator(self.variations, self.monitor)
        alarm = comparator.check_round(requests, lockstep_index=self.rounds)
        if alarm is not None and self.halt_on_alarm:
            return self.halt()
        results = self.wrappers.execute_round(comparator.transform_round(requests))
        variations = self.variations
        for index, (runtime, request, result) in enumerate(zip(runtimes, requests, results)):
            runtime.pending_result = variations.transform_result(index, request, result)
            runtime.pending_request = None
            if request.name is _EXIT or runtime.process.state not in LIVE_STATES:
                runtime.finished = True
                runtime.program.close()
        return self.state

    def _untrapped_round(self, runtimes: list[_VariantRuntime]) -> SessionState:
        """A round in which some variant finished, faulted or did not trap."""
        finished = [runtime for runtime in runtimes if runtime.finished]
        faulted = [runtime for runtime in runtimes if runtime.fault is not None]
        if faulted:
            # Reported in the round it happens, then the session halts or
            # forgets it, so no fault is ever reported twice.
            for runtime in faulted:
                self.monitor.report_fault(
                    runtime.context.index, runtime.fault, lockstep_index=self.rounds
                )
            if self.halt_on_alarm:
                return self.halt()
            for runtime in faulted:
                runtime.fault = None

        if finished:
            if len(finished) < len(runtimes):
                self.monitor.report_lifecycle_divergence(
                    "some variants terminated while others kept running",
                    lockstep_index=self.rounds,
                    variant_values=tuple(runtime.context.index for runtime in finished),
                )
                if self.halt_on_alarm:
                    return self.halt()
            # Every variant ended, or (without halting) nothing sensible is
            # left to synchronise on.
            self.state = SessionState.COMPLETED
        # Otherwise some variant yielded no request: wait for it.
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
