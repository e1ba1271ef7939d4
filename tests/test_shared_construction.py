"""What sessions share is fixed by their spec, and sharing it changes nothing.

Campaign cells and fleet sessions built from one spec share everything the
spec fixes: the stack shape and round plans of one declaration tuple and
interposition table, the parsed spec of one corpus spec dict, the parsed
config of one text, and the server-state template of one set of initial
values.  These tests pin that the sharing is invisible:

* a corpus slice grades identically forward, reversed and on the process
  backend, so no cell leaks into the next;
* two keyed sessions of one spec with different secrets, stepped
  interleaved, each decode under their own key, before and after a
  rotating restart;
* a malformed config raises on every parse, and a good one is parsed once;
* an overflow in one variant's state region reaches no other region;
* no cache holds a session, a kernel, a process or a variation;
* plan resolution costs a corpus cell a few calls, not a few per plan.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import types
from unittest import mock

import pytest

from repro.api.builders import build_session
from repro.api.spec import keyed_address_spec, keyed_uid_spec
from repro.apps.ftpd import config as ftpd_config
from repro.apps.httpd import config as httpd_config
from repro.apps.httpd import vulnerable
from repro.apps.httpd.vulnerable import build_server_state, copy_annotation_header
from repro.core.variations import base as variations_base
from repro.core.variations.base import Variation
from repro.corpus import runner
from repro.corpus.generator import generate_corpus
from repro.corpus.runner import run_corpus_records, system_spec
from repro.engine import NVariantSession, SessionState
from repro.engine import session as session_module
from repro.kernel.host import build_standard_host
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.process import Process
from repro.kernel.syscalls import Syscall
from repro.memory.address_space import AddressSpace
from repro.memory.memory_model import MemoryRegion
from repro.memory.partition import high_bit_scheme


@pytest.fixture(scope="module")
def records():
    return generate_corpus(records=48)[::3]


# -- (a) a cell's outcome does not depend on the cells before it ------------------------


def test_a_corpus_slice_grades_alike_forward_reversed_and_in_processes(records):
    forward = run_corpus_records(records, workers=2)
    backward = run_corpus_records(records[::-1], workers=2)[::-1]
    processes = run_corpus_records(records, backend="process", workers=2)
    assert forward == backward == processes


# -- (b) shared plans, per-session keys ------------------------------------------------


def _uid_probe(log):
    """Sets and reads back uid 33 three times, logging what each variant saw."""

    def factory(context):
        def program():
            libc, codec = context.libc, context.uid_codec
            for _ in range(3):
                yield libc.seteuid(codec.constant(33))
                euid = (yield libc.geteuid()).value
                log.append((context.index, euid))
                yield libc.seteuid(codec.constant(0))
            yield libc.exit(0)

        return program()

    return factory


def _address_probe(log):
    """Maps a region at a nominal address and reads it back through its pointer."""

    def factory(context):
        def program():
            space = context.address_space
            region = space.map_region(MemoryRegion("probe", 0x1000, 16))
            region.write(region.base, b"probe")
            yield context.libc.getpid()
            log.append((context.index, region.base, space.dereference(region.base, 5)))
            yield context.libc.exit(0)

        return program()

    return factory


def _interleave(sessions):
    while not all(session.done for session in sessions):
        for session in sessions:
            session.step()


def _pair(spec_of, probe):
    """A warm-up session resolves the shared plans; then two keyed sessions."""
    build_session(spec_of(99), build_standard_host(), probe([])).run()
    logs = ([], [])
    sessions = [
        build_session(spec_of(seed), build_standard_host(), probe(log), name=f"s{seed}")
        for seed, log in zip((1, 2), logs)
    ]
    return sessions, logs


def _check_uid(session, log):
    variation = session.variations.variations[0]
    assert session.state is SessionState.COMPLETED and not session.monitor.alarms
    assert sorted(log) == sorted(
        (index, variation.encode(index, 33)) for index in range(session.num_variants)
        for _ in range(3)
    )
    # The plan's hooks are this session's own, though the plan is shared.
    for name in (Syscall.SETEUID, Syscall.GETEUID):
        plan = session.round_plan(name)
        assert plan.canonicalize + plan.result
        for _, chain in plan.canonicalize + plan.result:
            assert [hook.__self__ for hook in chain] == [variation]


def test_keyed_uid_sessions_each_decode_under_their_own_key():
    sessions, logs = _pair(lambda seed: keyed_uid_spec(2, seed=seed), _uid_probe)
    masks = [session.variations.variations[0].masks for session in sessions]
    assert masks[0] != masks[1]
    _interleave(sessions)
    for session, log in zip(sessions, logs):
        _check_uid(session, log)

    for session, log in zip(sessions, logs):
        log.clear()
        session.restart(rotate_keys=True)
    assert [s.variations.variations[0].masks for s in sessions] != masks
    _interleave(sessions)
    for session, log in zip(sessions, logs):
        _check_uid(session, log)


def _check_address(session, log):
    scheme = session.variations.variations[0].scheme
    assert session.state is SessionState.COMPLETED and not session.monitor.alarms
    assert sorted(log) == [
        (index, (0x1000 + scheme.base_of(index)) & 0xFFFFFFFF, b"probe")
        for index in range(session.num_variants)
    ]


def test_keyed_address_sessions_each_map_under_their_own_key():
    sessions, logs = _pair(lambda seed: keyed_address_spec(2, seed=seed), _address_probe)
    secrets = [session.variations.variations[0].scheme.secret() for session in sessions]
    assert secrets[0] != secrets[1]
    _interleave(sessions)
    for session, log in zip(sessions, logs):
        _check_address(session, log)

    for session, log in zip(sessions, logs):
        log.clear()
        session.restart(rotate_keys=True)
    assert [s.variations.variations[0].scheme.secret() for s in sessions] != secrets
    _interleave(sessions)
    for session, log in zip(sessions, logs):
        _check_address(session, log)


def test_stacks_declared_alike_share_one_shape_and_one_plan_book():
    first, second = (
        build_session(keyed_uid_spec(2, seed=seed), build_standard_host(), _uid_probe([]))
        for seed in (1, 2)
    )
    assert first.variations.shape is second.variations.shape
    assert first._book is second._book
    first.run()
    assert first.round_plan(Syscall.GETPID) is second.round_plan(Syscall.GETPID)
    assert first.round_plan(Syscall.GETEUID) is not second.round_plan(Syscall.GETEUID)


# -- (c) configs: errors on every parse, one parse per good text ---------------------------


PARSERS = {
    "httpd": (httpd_config, httpd_config.parse_config),
    "ftpd": (ftpd_config, ftpd_config.parse_ftp_config),
}


@pytest.mark.parametrize("app", sorted(PARSERS))
def test_a_malformed_config_raises_on_every_parse(app):
    _, parse = PARSERS[app]
    for _ in range(3):
        with pytest.raises(ValueError, match="malformed directive on line 2"):
            parse("User alice\nListen\n")


@pytest.mark.parametrize("app", sorted(PARSERS))
def test_a_config_text_is_parsed_once_and_shared_frozen(app):
    module, parse = PARSERS[app]
    text = f"# parsed once ({app})\nUser alice\n"
    with mock.patch.object(module, "parse_directives", wraps=module.parse_directives) as spy:
        first, second = parse(text), parse(text)
    assert spy.call_count == 1
    assert first is second and first.user == "alice"
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.user = "root"


def test_a_corpus_run_parses_no_config_and_no_spec_twice(records):
    run_corpus_records(records, workers=2)
    with mock.patch.object(
        httpd_config, "parse_directives", wraps=httpd_config.parse_directives
    ) as configs, mock.patch.object(
        runner.SystemSpec, "from_dict", wraps=runner.SystemSpec.from_dict
    ) as specs:
        run_corpus_records(records, workers=2)
    assert configs.call_count == 0
    assert specs.call_count == 0


def test_the_spec_cache_is_bounded_and_keeps_no_error(records):
    data = dict(records[0].spec)
    assert system_spec(data) is system_spec(dict(data))
    for _ in range(2):
        with pytest.raises(TypeError, match="num_variants"):
            system_spec({**data, "num_variants": "two"})
    for number in range(runner._SPEC_CACHE_SIZE + 5):
        system_spec({**data, "name": f"bounded-{number}"})
    assert len(runner._SPECS) == runner._SPEC_CACHE_SIZE


# -- (d) one template, separate memory --------------------------------------------------


def _layout(index):
    space = AddressSpace(high_bit_scheme(), index)
    return build_server_state(space, worker_uid=33, worker_gid=33, admin_uid=0)


def test_an_overflow_reaches_no_other_variants_or_cells_region():
    variants = [_layout(0), _layout(1)]
    other_cell = _layout(0)
    pristine = [bytes(layout.region.data) for layout in variants + [other_cell]]
    assert pristine[0] == pristine[2]

    copy_annotation_header(variants[0], "A" * 80)
    assert variants[0].worker_uid.get() != 33
    assert bytes(variants[1].region.data) == pristine[1]
    assert bytes(other_cell.region.data) == pristine[2]
    fresh = _layout(0)
    assert bytes(fresh.region.data) == pristine[0]
    assert fresh.worker_uid.get() == 33 and fresh.banner_ptr.get() == fresh.banner_region.base


# -- (e) no cache holds live machinery ---------------------------------------------------


def _reachable(roots):
    """Every object reachable from *roots* through containers, instances,
    bound methods and closures (not through modules, classes or globals)."""
    module_dicts = {id(vars(module)) for module in list(sys.modules.values()) if module}
    seen, found, stack = set(), [], list(roots)
    while stack:
        item = stack.pop()
        if id(item) in seen or id(item) in module_dicts:
            continue
        seen.add(id(item))
        found.append(item)
        if isinstance(item, (types.ModuleType, type, types.CodeType)):
            continue
        if isinstance(item, types.FunctionType):
            stack.extend(cell.cell_contents for cell in item.__closure__ or ())
            continue
        stack.extend(gc.get_referents(item))
    return found


def test_no_cache_holds_a_session_kernel_process_or_variation(records):
    run_corpus_records(records, workers=2)
    caches = [
        session_module._plan_book,
        variations_base.stack_shape,
        runner._SPECS,
        vulnerable._state_template,
        httpd_config.parse_config,
        ftpd_config.parse_ftp_config,
    ]
    assert session_module._plan_book.cache_info().currsize > 0
    live = (NVariantSession, SimulatedKernel, Process, Variation)
    held = [type(item).__name__ for item in _reachable(caches) if isinstance(item, live)]
    assert not held


# -- the cost of resolving plans ---------------------------------------------------------


def test_plan_resolution_costs_a_corpus_cell_a_few_calls(records):
    run_corpus_records(records, workers=2)
    code = NVariantSession.round_plan.__code__
    counts = {"calls": 0, "depth": 0}

    def profile(frame, event, arg):
        if event == "call":
            if counts["depth"] or frame.f_code is code:
                counts["calls"] += 1
                counts["depth"] += 1
        elif event == "return" and counts["depth"]:
            counts["depth"] -= 1

    sys.setprofile(profile)
    try:
        run_corpus_records(records, workers=2)
    finally:
        sys.setprofile(None)
    # Each plan a cell meets is one call; binding a hooked name's chains a
    # few more.  Before plans were shared a cell paid about 163.
    assert counts["calls"] / len(records) <= 30
