"""The lockstep round's shortcuts agree with the work they skip.

A round hands a call's result to the variation stack only when the call is
in the stack's declared result footprint, and the wrapper layer picks its
execution strategy once per call name.  These tests pin both shortcuts
against the computation they replace, and check end to end that a
protected server still answers byte for byte like the unprotected one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.builders import build_session
from repro.api.registry import VariationParameterError, registry
from repro.api.spec import ADDRESS_UID_SPEC, uid_orbit_spec
from repro.apps.clients import ftpbench
from repro.apps.clients.ftpbench import FtpBenchWorkload, FtpMixEntry
from repro.apps.clients.webbench import (
    DEFAULT_STATIC_MIX,
    RequestMixEntry,
    WebBenchWorkload,
    drive_standalone,
)
from repro.apps.httpd.server import make_httpd_factory
from repro.core.variations import AddressPartitioning, UIDVariation, VariationStack
from repro.core.wrappers import SyscallWrappers
from repro.engine import MultiSessionEngine, NVariantSession
from repro.interpose import PolicyKind, get_table
from repro.kernel.errors import Errno
from repro.kernel.host import HTTP_PORT, build_ftp_host, build_standard_host
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult

ALL_SYSCALLS = tuple(Syscall)


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


def test_every_registered_kind_is_covered():
    assert {name for name, _, _ in REGISTERED} == set(registry.names())


@pytest.mark.parametrize(
    "name,num_variants,variation",
    REGISTERED,
    ids=[f"{name}-N{n}" for name, n, _ in REGISTERED],
)
def test_results_outside_the_footprint_pass_through_unchanged(name, num_variants, variation):
    stack = VariationStack([variation], num_variants)
    footprint = stack.result_syscalls()
    assert footprint is not None, f"{name} declares no result footprint"
    # An int a re-expression would rewrite (a uid, a descriptor), and a failure.
    ok, failed = SyscallResult.success(3), SyscallResult.failure(Errno.EBADF)
    for syscall in ALL_SYSCALLS:
        if syscall in footprint:
            continue
        request = SyscallRequest(syscall, (3, 4))
        for index in range(num_variants):
            for result in (ok, failed):
                assert stack.transform_result(index, request, result) == result, (
                    f"{name} N={num_variants} variant {index} rewrote "
                    f"{syscall.value} outside its footprint"
                )


@pytest.mark.parametrize("kind", ["uid", "uid-orbit", "fd-orbit"])
def test_the_footprint_is_where_results_do_change(kind):
    # The negative control for the pass-through test: inside the footprint
    # some variant sees a re-expressed value.
    variation = registry.create(kind, {"num_variants": 2})
    stack = VariationStack([variation], 2)
    for syscall in stack.result_syscalls():
        request = SyscallRequest(syscall, ())
        result = SyscallResult.success(3)
        assert stack.transform_result(1, request, result) != result


def test_an_override_without_a_redeclared_footprint_disables_the_fast_path():
    class Rewrites(UIDVariation):
        def transform_result(self, index, request, result):
            return result

    class Redeclares(Rewrites):
        result_syscalls = frozenset({Syscall.TIME})

    assert VariationStack([UIDVariation()]).result_syscalls() == UIDVariation.result_syscalls
    assert VariationStack([Rewrites()]).result_syscalls() is None
    assert VariationStack([Redeclares()]).result_syscalls() == {Syscall.TIME}


class _CountingUID(UIDVariation):
    """Counts the calls whose results reach the hook; declares no footprint."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def transform_result(self, index, request, result):
        self.seen.append(request.name)
        return super().transform_result(index, request, result)


class _DeclaredCountingUID(_CountingUID):
    result_syscalls = UIDVariation.result_syscalls


def _serve(variation):
    kernel = build_standard_host()
    workload = WebBenchWorkload(total_requests=4, requests_per_connection=2)
    for payload in workload.connection_payloads():
        kernel.client_connect(HTTP_PORT, payload)
    factory = make_httpd_factory(transformed=True, max_requests=4, multiplex=2)
    session = NVariantSession(kernel, factory, [AddressPartitioning(), variation])
    result = session.run()
    assert not result.alarms
    assert result.wrapper_stats.checks > 0
    return session, result, kernel


def test_a_session_transforms_results_only_for_footprint_calls():
    variation = _DeclaredCountingUID()
    session, result, kernel = _serve(variation)
    assert session.variations.result_syscalls() == UIDVariation.result_syscalls
    getuid_family = sum(
        kernel.stats.syscall_breakdown.get(name.value, 0) for name in UIDVariation.result_syscalls
    )
    assert getuid_family > 0
    # The getuid family runs per variant, so the kernel counts it N times a
    # round, once for each result the hook re-expresses.
    assert set(variation.seen) <= UIDVariation.result_syscalls
    assert len(variation.seen) == getuid_family


def test_an_undeclared_footprint_transforms_every_result():
    variation = _CountingUID()
    session, result, _ = _serve(variation)
    assert session.variations.result_syscalls() is None
    assert len(variation.seen) == session.num_variants * result.wrapper_stats.checks


def _ladder(table, name):
    """The wrapper's dispatch as it was decided on every call before memoising."""
    entry = table.entry(name)
    if entry.policy is PolicyKind.DENY:
        return SyscallWrappers._execute_deny
    if name is Syscall.OPEN:
        return SyscallWrappers._execute_open
    if entry.creates_fd:
        return SyscallWrappers._execute_descriptor_creating
    if entry.fd_arg:
        return SyscallWrappers._execute_fd_call
    if entry.policy is PolicyKind.REPLICATE:
        return SyscallWrappers._execute_once
    return SyscallWrappers._execute_per_variant


@pytest.mark.parametrize("table_name", ["classic", "wide"])
def test_memoised_wrapper_strategy_matches_the_ladder(table_name):
    table = get_table(table_name)
    kernel = build_standard_host()
    processes = [kernel.spawn_process(f"v{i}") for i in range(2)]
    wrappers = SyscallWrappers(kernel, processes, table=table)
    for syscall in ALL_SYSCALLS:
        assert wrappers.strategy(syscall) is _ladder(table, syscall), syscall
    wrappers.execute_round([SyscallRequest(Syscall.GETPID)] * 2)
    wrappers.execute_round([SyscallRequest(Syscall.GETPID)] * 2)
    assert wrappers._strategies == {Syscall.GETPID: _ladder(table, Syscall.GETPID)}


# -- byte parity with the unprotected server -----------------------------------

SHARDS = 2
MULTIPLEX = 4


def _httpd_shards():
    paths = [entry.path for entry in DEFAULT_STATIC_MIX]
    batch = WebBenchWorkload(
        total_requests=16,
        mix=tuple(RequestMixEntry(path) for path in paths + paths[:6]),
        requests_per_connection=4,
    )
    shards, offset = [], 0
    for shard in batch.split(SHARDS):
        shards.append(dataclasses.replace(shard, mix=batch.mix[offset : offset + shard.total_requests]))
        offset += shard.total_requests
    return shards


def test_protected_httpd_fleet_matches_the_unprotected_server_byte_for_byte():
    spec = ADDRESS_UID_SPEC
    shards = _httpd_shards()
    kernels, sessions = [], []
    for number, shard in enumerate(shards):
        kernel = build_standard_host()
        for payload in shard.connection_payloads():
            kernel.client_connect(HTTP_PORT, payload)
        factory = make_httpd_factory(
            transformed=spec.transformed, max_requests=shard.total_requests, multiplex=MULTIPLEX
        )
        sessions.append(build_session(spec, kernel, factory, name=f"parity-s{number}"))
        kernels.append(kernel)
    result = MultiSessionEngine(sessions, name="parity").run()
    assert all(not s.result.alarms for s in result.sessions)
    for shard, kernel in zip(shards, kernels):
        reference = build_standard_host()
        measurement = drive_standalone(
            shard, transformed=True, multiplex=MULTIPLEX, kernel=reference
        )
        assert measurement.status_counts == {200: shard.total_requests}
        served = [c.response_bytes() for c in kernel.network.connections]
        assert served == [c.response_bytes() for c in reference.network.connections]


def test_protected_ftpd_fleet_matches_the_unprotected_server_byte_for_byte():
    spec = uid_orbit_spec(3)
    mixes = (
        (FtpMixEntry("/welcome.txt"), FtpMixEntry("/pub/readme.txt")),
        (FtpMixEntry("/incoming/notes.txt"), FtpMixEntry("/pub/tools.tar")),
    )
    shards = [
        FtpBenchWorkload(total_requests=4, mix=mix, transfers_per_connection=2) for mix in mixes
    ]
    kernels, sessions = [], []
    for number, shard in enumerate(shards):
        kernel, session = ftpbench.prepare_nvariant_session(
            shard, spec, multiplex=MULTIPLEX, name=f"parity-ftpd-s{number}"
        )
        kernels.append(kernel)
        sessions.append(session)
    result = MultiSessionEngine(sessions, name="parity-ftpd").run()
    assert all(not s.result.alarms for s in result.sessions)
    for shard, kernel in zip(shards, kernels):
        reference = build_ftp_host()
        measurement = ftpbench.drive_standalone(
            shard, transformed=spec.transformed, multiplex=MULTIPLEX, kernel=reference
        )
        assert measurement.requests_completed == shard.total_requests
        served = [c.response_bytes() for c in kernel.network.connections]
        assert served == [c.response_bytes() for c in reference.network.connections]
