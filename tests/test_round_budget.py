"""What one lockstep round costs the interpreter, pinned as a budget.

Every workload spends nearly all of its time in lockstep rounds, and a round
costs a little in every layer: the engine's step, the variation hooks, the
wrappers, the kernel and the programs' own frames, which trap with one
``yield`` of the request a libc helper returns.  This
suite counts, under ``sys.setprofile``, the Python-level calls (generator
resumptions included) and the ``object.__new__`` constructions one round
makes on three fixed shapes, and fails when either rises more than 5% above
the figure this code measured:

* a 2-session fleet of the N=2 address+uid httpd (keep-alive, multiplex 4);
* one ftpd session under the three-variant UID orbit;
* a 6-record slice of the seeded attack corpus, each cell built and run.

A corpus cell is also pinned whole, per cell: its construction (host,
session, round plans, the server's start-up) is work no per-round figure
isolates.  The figures print with ``pytest -s``; ``make round-budget`` runs
the suite.  A change that makes a round or a cell cheaper lowers the budget
in the same commit.

The socket output path has a byte budget too: a connection holds what the
server sent once, so reading every response of the fleet shape may add at
most 5% of the response bytes to traced memory.  Copying the sent bytes on
the read would add 100%.

The round shares frozen values instead of rebuilding them: the kernel's
commonest successful results and the zero-argument libc requests are built
once.  The last tests check that sharing them is safe: both types are
frozen, equal to a fresh instance, and survive the pickle round trip the
process backend puts them through.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle
import sys
import tracemalloc

import pytest

from repro.api.builders import build_session
from repro.api.spec import ADDRESS_UID_SPEC, uid_orbit_spec
from repro.apps.clients.webbench import WebBenchWorkload
from repro.apps.httpd.server import make_httpd_factory
from repro.corpus.generator import generate_corpus
from repro.corpus.runner import run_corpus_records
from repro.engine import MultiSessionEngine, NVariantSession
from repro.kernel import syscalls
from repro.kernel.host import HTTP_PORT, build_standard_host
from repro.kernel.libc import _CLOSE_REQUESTS, Libc
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult
from repro.load import build_serving_session

#: Per lockstep round: (Python calls, ``object.__new__`` calls), each the
#: figure measured on this code (CPython 3.11) plus 5%.  Before the libc
#: helpers became generators themselves (each then delegated to a shared
#: trap generator), the round shared its frozen values and the plan its
#: canonical requests, the same shapes measured 47.16 and 4.31 (fleet),
#: 54.47 and 5.57 (ftpd) and 54.26 and 4.80 (corpus); before sessions shared
#: their round plans and the server its state template, 32.02, 37.39 and
#: 41.87 calls; before a plan's hook chains were per variant and an
#: equivalent hooked round skipped the monitor, 30.03, 35.81 and 34.96
#: calls; while each helper was a generator the program drove with ``yield
#: from`` (one created, resumed twice, per variant per call), 28.54, 34.71
#: and 33.64 calls.
BUDGETS = {
    "fleet-httpd-2x2": (26.45, 2.25),  # measured 25.19 and 2.14
    "ftpd-orbit-3": (33.32, 3.30),  # measured 31.73 and 3.14
    "corpus-slice-6": (32.54, 3.10),  # measured 30.99 and 2.95
}


def _fleet_engine():
    workload = WebBenchWorkload(total_requests=16, requests_per_connection=4)
    sessions = []
    for number, shard in enumerate(workload.split(2)):
        kernel = build_standard_host()
        for payload in shard.connection_payloads():
            kernel.client_connect(HTTP_PORT, payload)
        factory = make_httpd_factory(
            transformed=ADDRESS_UID_SPEC.transformed,
            max_requests=shard.total_requests,
            multiplex=4,
        )
        sessions.append(build_session(ADDRESS_UID_SPEC, kernel, factory, name=f"s{number}"))
    return MultiSessionEngine(sessions, name="budget")


def _fleet():
    return _fleet_engine().run


def _ftpd():
    workload = WebBenchWorkload(app="ftpd", total_requests=8, requests_per_connection=2)
    session = build_serving_session(uid_orbit_spec(3), "ftpd", max_requests=8)
    for payload in workload.connection_payloads():
        workload.serving_app.connect(session.kernel, payload)
    return session.run


def _corpus_records():
    return generate_corpus(records=24)[::4]


def _corpus():
    records = _corpus_records()
    return lambda: run_corpus_records(records, workers=2)


SHAPES = {
    "fleet-httpd-2x2": _fleet,
    "ftpd-orbit-3": _ftpd,
    "corpus-slice-6": _corpus,
}

_STEP = NVariantSession.step.__code__
_NEW = object.__new__


def per_round(shape: str) -> tuple[float, float, int]:
    """``(calls, allocations, rounds)`` of one run of *shape*, per round.

    The shape is built (and, for the fleet and ftpd, its sessions too) before
    counting starts; a corpus cell builds its own session inside the run, as
    it does in a real pass.
    """
    counts = _count(SHAPES[shape]())
    rounds = counts["rounds"]
    return counts["call"] / rounds, counts["new"] / rounds, rounds


def _count(run) -> dict[str, int]:
    """The Python calls, ``object.__new__`` calls and lockstep rounds of ``run()``."""
    counts = {"call": 0, "new": 0, "rounds": 0}

    def profile(frame, event, arg):
        if event == "call":
            counts["call"] += 1
            if frame.f_code is _STEP:
                counts["rounds"] += 1
        elif event == "c_call" and arg is _NEW:
            counts["new"] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_round_stays_within_its_budget(shape):
    per_round(shape)  # warm: first-use imports and caches are not a round's cost
    calls, allocations, rounds = per_round(shape)
    call_budget, allocation_budget = BUDGETS[shape]
    print(
        f"\n{shape}: {rounds} rounds, {calls:.2f} Python calls and "
        f"{allocations:.2f} object.__new__ per round "
        f"(budget {call_budget:.2f} and {allocation_budget:.2f})"
    )
    assert calls <= call_budget, f"{shape}: {calls:.2f} Python calls per round"
    assert allocations <= allocation_budget, f"{shape}: {allocations:.2f} allocations per round"


#: Per corpus cell of the ``corpus-slice-6`` records, everything included:
#: (Python calls, ``object.__new__`` calls), each the figure measured on this
#: code (CPython 3.11) plus 5%.  A cell's construction -- host, session,
#: round plans, the server's start-up -- is part of the figure, so work
#: added to what every cell of a spec builds alike shows here even when no
#: round changes.
#: Before the libc helpers returned their requests, 1429.5 and 125.5; before
#: per-variant chains and the mask-keyed account files, 1485.8 and 125.5;
#: before shared plans, 1779.3 and 125.5.
CELL_BUDGET = (1382.6, 131.8)  # measured 1316.8 and 125.5


def test_a_corpus_cell_stays_within_its_budget():
    records = _corpus_records()
    run = functools.partial(run_corpus_records, records, workers=2)
    run()  # warm: first-use imports and the shared caches are not a cell's cost
    counts = _count(run)
    calls, allocations = counts["call"] / len(records), counts["new"] / len(records)
    call_budget, allocation_budget = CELL_BUDGET
    print(
        f"\ncorpus-slice-6: {len(records)} cells, {calls:.1f} Python calls and "
        f"{allocations:.1f} object.__new__ per cell "
        f"(budget {call_budget:.1f} and {allocation_budget:.1f})"
    )
    assert calls <= call_budget, f"{calls:.1f} Python calls per cell"
    assert allocations <= allocation_budget, f"{allocations:.1f} allocations per cell"


#: What reading every response may add to traced memory, as a share of the
#: response bytes read.
READ_BYTE_BUDGET = 0.05


def test_reading_the_responses_stays_within_its_byte_budget():
    engine = _fleet_engine()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        # Traced from before the run, so freeing the sent chunks counts too.
        engine.run()
        connections = [c for s in engine.sessions for c in s.kernel.network.connections]
        before = tracemalloc.get_traced_memory()[0]
        served = [connection.response_bytes() for connection in connections]
        added = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    total = sum(map(len, served))
    print(
        f"\nfleet-httpd-2x2: reading {len(served)} responses ({total} bytes) "
        f"added {added} traced bytes (budget {READ_BYTE_BUDGET * total:.0f})"
    )
    assert total > 0
    assert added <= READ_BYTE_BUDGET * total, f"reading the responses added {added} bytes"


# -- the shared frozen values ------------------------------------------------------

SHARED_RESULTS = (*syscalls._SHARED_INTS, syscalls._SHARED_TRUE, syscalls._SHARED_EMPTY)

ZERO_ARGUMENT_HELPERS = ("getpid", "getuid", "geteuid", "getgid", "getegid", "socket", "time")


def _prebuilt_requests():
    libc = Libc()
    requests = [getattr(libc, helper)() for helper in ZERO_ARGUMENT_HELPERS]
    return requests + list(_CLOSE_REQUESTS)


def test_the_kernel_returns_the_shared_results():
    kernel = build_standard_host()
    process = kernel.spawn_process("p")
    assert kernel.execute(process, SyscallRequest(Syscall.GETUID, ())) is syscalls._SHARED_INTS[0]
    assert syscalls._trusted_success(True) is syscalls._SHARED_TRUE
    assert syscalls._trusted_success(b"") is syscalls._SHARED_EMPTY
    # Outside the tables a result is built fresh, and 1 is never True.
    assert syscalls._trusted_success(64) is not syscalls._trusted_success(64)
    assert syscalls._trusted_success(1).value.__class__ is int
    assert syscalls._trusted_success(False).value is False


def test_zero_argument_helpers_yield_one_prebuilt_request_each():
    first, second = _prebuilt_requests(), _prebuilt_requests()
    assert all(a is b for a, b in zip(first, second))
    assert Libc().close(3) is _CLOSE_REQUESTS[3]
    assert Libc().close(64) == SyscallRequest(Syscall.CLOSE, (64,))
    assert Libc().close(True).args[0] is True


@pytest.mark.parametrize("shared", SHARED_RESULTS + tuple(_prebuilt_requests()), ids=repr)
def test_a_shared_value_is_frozen_equal_and_pickles_equal(shared):
    field = "value" if isinstance(shared, SyscallResult) else "args"
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(shared, field, 99)
    if isinstance(shared, SyscallResult):
        fresh = SyscallResult(value=shared.value)
    else:
        fresh = SyscallRequest(shared.name, shared.args)
    assert shared == fresh and hash(shared) == hash(fresh)
    assert type(shared.value if field == "value" else shared.args) is type(
        getattr(fresh, field)
    )
    assert pickle.loads(pickle.dumps(shared)) == shared
