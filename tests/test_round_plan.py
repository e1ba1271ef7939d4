"""A session's round plans agree with the layers they replace.

A uniform lockstep round runs straight from the plan its session resolved
for the call name: whether the requests are compared raw, whether the call
is a detection call, each variant's canonicalize/transform/result hook
chain, and the wrapper strategy.  These tests pin every plan against the
layered definition of each of those, for every registered variation kind
at every variant count it accepts, under both interposition tables and for
every system call: each variant's chain is the layered chain less the
variations that are the identity at that variant, and the values it makes
equal the layered walk's, keyed stacks included after a rotating restart.
They also check that a hooked round whose canonical requests differ still
raises the monitor's classified alarm, and that the counters a round moves
land on the session's current monitor and wrappers after a restart and a
migration.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.registry import VariationParameterError, registry
from repro.api.spec import keyed_uid_spec
from repro.apps.clients.webbench import WebBenchWorkload
from repro.core.variations.address import AddressPartitioning
from repro.core.variations.base import Variation
from repro.core.variations.fdspace import FdOrbitVariation
from repro.core.alarm import AlarmType
from repro.core.monitor import Monitor
from repro.core.variations.uid import UIDVariation
from repro.core.wrappers import strategy_for
from repro.engine import NVariantSession, SessionState
from repro.interpose import get_table
from repro.kernel.errors import Errno
from repro.kernel.host import build_standard_host
from repro.kernel.libc import Libc
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult
from repro.memory.partition import KeyedScheme
from repro.load import build_serving_session, restore
from repro.load.checkpoint import checkpoint

ALL_SYSCALLS = tuple(Syscall)
TABLES = ("classic", "wide")


def _registered_variations():
    """Every registry kind at every variant count from 2 to 8 it accepts."""
    for entry in registry:
        if "num_variants" not in entry.parameters():
            yield entry.name, 2, registry.create(entry.name)
            continue
        for num_variants in range(2, 9):
            try:
                variation = registry.create(entry.name, {"num_variants": num_variants})
            except VariationParameterError:
                continue
            yield entry.name, num_variants, variation


REGISTERED = list(_registered_variations())


class _WiderCanonicalization(UIDVariation):
    """Also canonicalizes ``time``, and declares it with the override."""

    canonical_syscalls = UIDVariation.canonical_syscalls | {Syscall.TIME}
    shared_rewrite_syscalls = UIDVariation.shared_rewrite_syscalls

    def canonicalize_request(self, index, request):
        if request.name is Syscall.TIME:
            return request.with_args(("canonical",))
        return super().canonicalize_request(index, request)


class _NoHooks(Variation):
    """Defines no hook, so it keeps the base's empty footprints."""

    name = "no-hooks"


WIDER = _WiderCanonicalization()
OVERRIDDEN_HOOK = [AddressPartitioning(), WIDER]
NO_HOOKS = [AddressPartitioning(), _NoHooks()]


def _stacks():
    for name, num_variants, variation in REGISTERED:
        yield f"{name}-N{num_variants}", [variation], num_variants
    yield "overridden-hook", OVERRIDDEN_HOOK, 2
    yield "no-hooks", NO_HOOKS, 2


STACKS = list(_stacks())


def test_every_registered_kind_is_covered():
    assert {name for name, _, _ in REGISTERED} == set(registry.names())


#: Each chain field of a plan, with its hook and whether it walks the stack reversed.
CHAIN_FIELDS = (
    ("canonicalize", "canonicalize_request", False),
    ("transform", "transform_request", False),
    ("result", "transform_result", True),
)


def _layered_chains(stack, hook, name, reverse):
    """Each variant's layered chain less the variations that are the identity there."""
    chain = stack._chain(hook, name, reverse=reverse)
    return {
        index: kept
        for index in range(stack.num_variants)
        if (kept := tuple(h for h in chain if index not in h.__self__.identity_variants()))
    }


def _exit_program(context):
    yield context.libc.exit(0)


def _idle_session(variations, num_variants, table):
    return NVariantSession(
        build_standard_host(),
        _exit_program,
        variations,
        num_variants=num_variants,
        interposition=table,
    )


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize(
    "variations,num_variants",
    [(variations, n) for _, variations, n in STACKS],
    ids=[label for label, _, _ in STACKS],
)
def test_each_plan_equals_the_layered_definition(variations, num_variants, table):
    session = _idle_session(variations, num_variants, table)
    stack = session.variations
    canonical = stack.canonical_syscalls()
    detection = get_table(table).detection_syscalls
    for name in ALL_SYSCALLS:
        plan = session.round_plan(name)
        assert plan.fast == (name not in canonical), name
        assert plan.detection == (name in detection), name
        for field, hook, reverse in CHAIN_FIELDS:
            chains = getattr(plan, field)
            # Variant order, one entry a variant, and only chains that run a hook.
            indices = [index for index, _ in chains]
            assert indices == sorted(set(indices)), (name, field)
            assert dict(chains) == _layered_chains(stack, hook, name, reverse), (name, field)
        assert plan.strategy is strategy_for(session.wrappers.table, name), name
        assert plan.shared == stack.shares_rewrite(name), name
        if plan.shared:
            assert not plan.fast and plan.canonicalize, name
        assert session.round_plan(name) is plan


# -- the values each variant's chain makes ----------------------------------------

#: Arguments a hook may meet: uid_t values, both sentinel spellings, a bool,
#: a non-int and descriptors.
SAMPLE_ARGS = ((1000,), (5, 1001), (1000, -1, 0xFFFFFFFF), (True, 7), ("x", 3), ())
SAMPLE_RESULTS = (
    SyscallResult.success(1000),
    SyscallResult.success(3),
    SyscallResult.failure(Errno.EBADF),
)


def _walk(chains, index, value, *request):
    """*value* through variant *index*'s hooks in *chains* (none if it is not listed)."""
    for hook in dict(chains).get(index, ()):
        value = hook(index, *request, value)
    return value


def _check_values(session):
    """Every variant's plan-walked values equal the stack's layered walk."""
    stack = session.variations
    footprints = stack.canonical_syscalls() | stack.transform_syscalls()
    names = footprints | stack.result_syscalls() | {Syscall.GETPID, Syscall.WRITE}
    for name in sorted(names, key=lambda syscall: syscall.value):
        plan = session.round_plan(name)
        for index in range(session.num_variants):
            for args in SAMPLE_ARGS:
                request = SyscallRequest(name, args)
                canonical = _walk(plan.canonicalize, index, request)
                outgoing = canonical if plan.shared else _walk(plan.transform, index, request)
                assert canonical == stack.canonicalize_request(index, request), (name, args)
                assert outgoing == stack.transform_request(index, request), (name, args)
                if plan.shared:
                    # The round sends the canonical requests themselves.
                    assert outgoing is canonical
            request = SyscallRequest(name, (1000,))
            for result in SAMPLE_RESULTS:
                expected = stack.transform_result(index, request, result)
                assert _walk(plan.result, index, result, request) == expected, (name, result)


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize(
    "variations,num_variants",
    [(variations, n) for _, variations, n in STACKS],
    ids=[label for label, _, _ in STACKS],
)
def test_each_variant_chain_makes_the_layered_values(variations, num_variants, table):
    session = _idle_session(variations, num_variants, table)
    _check_values(session)
    if any(isinstance(variation.scheme, KeyedScheme) for variation in variations):
        secrets = [variation.scheme.secret() for variation in variations]
        session.restart(rotate_keys=True)
        assert [variation.scheme.secret() for variation in variations] != secrets
        _check_values(session)


@pytest.mark.parametrize("num_variants", [2, 3, 8])
def test_a_keyed_mask_of_zero_runs_no_hook_for_its_variant(num_variants):
    variation = registry.create("uid-keyed", {"num_variants": num_variants, "seed": 4})
    session = _idle_session([variation], num_variants, "classic")
    last = num_variants - 1
    for masks, identities in (
        (tuple(range(1, num_variants)) + (0,), {last}),
        (tuple(range(1, num_variants + 1)), set()),
    ):
        variation.rekey(masks)
        session.restart(rotate_keys=False)
        assert variation.identity_variants() == identities
        for name in (Syscall.SETEUID, Syscall.GETEUID, Syscall.CC_EQ, Syscall.UID_VALUE):
            plan = session.round_plan(name)
            listed = {index for field in (plan.canonicalize, plan.result) for index, _ in field}
            assert listed == set(range(num_variants)) - identities, name
        _check_values(session)


# -- a hooked round whose canonical requests differ ----------------------------------


def _one_round(variations, requests, halt_on_alarm):
    """A session after one lockstep round in which variant *i* issues ``requests[i]``."""

    def program(context):
        yield Libc.syscall(requests[context.index].name, *requests[context.index].args)

    session = NVariantSession(
        build_standard_host(),
        program,
        variations,
        num_variants=len(requests),
        halt_on_alarm=halt_on_alarm,
    )
    session.step()
    return session


@pytest.mark.parametrize("halt_on_alarm", [True, False])
@pytest.mark.parametrize(
    "name,args,alarm_type,detection",
    [
        (Syscall.SETEUID, (33,), AlarmType.UID_DIVERGENCE, False),
        (Syscall.CC_EQ, (0, 1000), AlarmType.UID_DIVERGENCE, True),
        (Syscall.UID_VALUE, (0,), AlarmType.UID_DIVERGENCE, True),
    ],
    ids=["seteuid", "cc_eq", "uid_value"],
)
def test_a_hooked_mismatch_raises_the_monitors_alarm_once(
    name, args, alarm_type, detection, halt_on_alarm
):
    # Both variants issue one concrete value, as injected data would: it
    # decodes to two different users, so the canonical requests differ.
    variation = UIDVariation()
    requests = [SyscallRequest(name, args)] * 2
    session = _one_round([AddressPartitioning(), variation], requests, halt_on_alarm)
    assert not session.round_plan(name).fast

    expected = Monitor(table=session.table)
    canonical = [session.variations.canonicalize_request(i, r) for i, r in enumerate(requests)]
    assert canonical[0] != canonical[1]
    expected.check_syscalls(canonical, lockstep_index=1)
    assert session.monitor.alarms == expected.alarms
    assert [alarm.alarm_type for alarm in session.monitor.alarms] == [alarm_type]
    stats = session.monitor.stats
    assert stats == expected.stats
    assert (stats.lockstep_points, stats.syscalls_compared, stats.alarms_raised) == (1, 2, 1)
    assert stats.detection_calls_checked == int(detection)
    assert stats.fast_path_rounds == 0
    if halt_on_alarm:
        assert session.state is SessionState.HALTED
        assert session.wrappers.stats.checks == 0
    else:
        assert session.state is SessionState.RUNNING
        assert session.wrappers.stats.checks == 1


def test_the_special_stacks_compare_raw_outside_their_declarations():
    overridden = _idle_session(OVERRIDDEN_HOOK, 2, "classic")
    for name in ALL_SYSCALLS:
        assert overridden.round_plan(name).fast is (
            name not in _WiderCanonicalization.canonical_syscalls
        ), name
    # The override does not restate the identity declaration, so it runs at both variants.
    time_chains = overridden.round_plan(Syscall.TIME).canonicalize
    assert [(index, [hook.__self__ for hook in chain]) for index, chain in time_chains] == [
        (0, [WIDER]),
        (1, [WIDER]),
    ]
    no_hooks = _idle_session(NO_HOOKS, 2, "classic")
    assert all(no_hooks.round_plan(name).fast for name in ALL_SYSCALLS)


def test_only_declared_alike_chains_share_their_rewrite():
    uid_calls = UIDVariation.shared_rewrite_syscalls
    fd_calls = FdOrbitVariation.shared_rewrite_syscalls
    stacks = {
        "uid": ([UIDVariation()], uid_calls),
        "fd": ([FdOrbitVariation()], fd_calls),
        "address+uid": ([AddressPartitioning(), UIDVariation()], uid_calls),
        # Neither canonicalizes the other's calls, so each shares its own.
        "fd+uid": ([FdOrbitVariation(), UIDVariation()], uid_calls | fd_calls),
        # The override redeclares the UID calls as shared; time is only
        # canonicalized.  A variation without hooks shares nothing.
        "overridden-hook": (OVERRIDDEN_HOOK, uid_calls),
        "no-hooks": (NO_HOOKS + [UIDVariation()], uid_calls),
    }
    for label, (variations, expected) in stacks.items():
        stack = _idle_session(variations, 2, "classic").variations
        shared = {name for name in ALL_SYSCALLS if stack.shares_rewrite(name)}
        assert shared == expected, label
    # uid_value is canonicalized but not transformed: never shared.
    assert Syscall.UID_VALUE not in uid_calls


def test_a_session_resolves_plans_only_for_the_names_it_meets():
    session = _idle_session([UIDVariation()], 2, "classic")
    session.run()
    assert set(session._plans) == {Syscall.EXIT}


# -- counters after a restart and a migration --------------------------------------


def _serve(session, requests=4):
    """Queue *requests* benign conversations and run *session* to its end."""
    workload = WebBenchWorkload(total_requests=requests, requests_per_connection=2)
    for payload in workload.connection_payloads():
        workload.serving_app.connect(session.kernel, payload)
    while not session.done:
        session.step()
    return session


def _counts(session):
    return dataclasses.asdict(session.monitor.stats), dataclasses.asdict(session.wrappers.stats)


def _keyed_session(name="origin"):
    return build_serving_session(keyed_uid_spec(2, seed=3), "httpd", max_requests=4, name=name)


def test_counts_land_on_the_new_monitor_and_wrappers_after_a_restart():
    session = _serve(_keyed_session())
    assert session.state is SessionState.COMPLETED and not session.monitor.alarms
    first = _counts(session)
    old_monitor, old_wrappers = session.monitor, session.wrappers
    masks = session.variations.variations[0].masks

    session.restart(rotate_keys=True)
    variation = session.variations.variations[0]
    assert variation.masks != masks
    assert not session._plans
    # Each variant's codec is bound anew, to the rotated key.
    for context in session.contexts:
        assert context.uid_codec.root == variation.encode(context.index, 0)
        assert context.uid_codec.decode(variation.encode(context.index, 33)) == 33
    _serve(session)

    assert session.state is SessionState.COMPLETED and not session.monitor.alarms
    assert session.monitor is not old_monitor and session.wrappers is not old_wrappers
    assert (dataclasses.asdict(old_monitor.stats), dataclasses.asdict(old_wrappers.stats)) == first
    assert _counts(session) == first
    assert session.monitor.stats.lockstep_points == session.rounds - 1


def test_counts_land_on_the_restored_session_after_a_migration():
    origin = _serve(_keyed_session())
    first = _counts(origin)
    migrated = restore(checkpoint(origin), name="migrated")
    _serve(migrated)

    assert migrated.state is SessionState.COMPLETED and not migrated.monitor.alarms
    assert _counts(origin) == first
    assert _counts(migrated) == first
    assert migrated.monitor.stats.lockstep_points == migrated.rounds - 1
