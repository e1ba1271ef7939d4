"""The lockstep round's shortcuts agree with the work they skip.

A round hands a call's result to the variation stack only when the call is
in the stack's declared result footprint, the stack walks only the hook
chain of variations whose footprint names the call, the UID variation
decodes a request once per variant for both the monitor and the kernel,
the libc helpers build their requests without the public constructor's
checks, and the wrapper layer picks its execution strategy once per call
name.  These tests pin each shortcut
against the computation it replaces; ``test_cross_app_parity.py`` checks
end to end that a protected server still answers byte for byte like the
unprotected one.
"""

from __future__ import annotations

import inspect

import pytest

from repro.api.registry import VariationParameterError, registry
from repro.apps.clients.webbench import WebBenchWorkload
from repro.apps.httpd.server import make_httpd_factory
from repro.core.variations import (
    AddressPartitioning,
    UIDVariation,
    VariationStack,
)
from repro.core.variations.base import Variation
from repro.core.wrappers import SyscallWrappers, strategy_for
from repro.engine import NVariantSession
from repro.engine import session as session_module
from repro.interpose import PolicyKind, get_table
from repro.kernel.credentials import Credentials
from repro.kernel.errors import Errno
from repro.kernel.filesystem import FileSystem, O_CREAT, O_RDONLY, O_RDWR, O_WRONLY
from repro.kernel.host import HTTP_PORT, build_standard_host
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.libc import Libc
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult
from repro.memory.partition import XorMaskScheme

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


#: Every footprint attribute, with a hook whose definition requires it.
DECLARATIONS = (
    ("canonical_syscalls", "canonicalize_request"),
    ("transform_syscalls", "transform_request"),
    ("result_syscalls", "transform_result"),
    ("shared_rewrite_syscalls", "canonicalize_request"),
    ("shared_rewrite_syscalls", "transform_request"),
)


@pytest.mark.parametrize("attribute,hook", DECLARATIONS, ids=[f"{a}-{h}" for a, h in DECLARATIONS])
def test_a_hook_without_its_footprint_in_the_same_body_is_refused(attribute, hook):
    # Every other attribute the hook requires is assigned, so the error can
    # only be about *attribute*; an inherited declaration does not count.
    body = {hook: getattr(UIDVariation, hook)}
    body.update({other: frozenset() for other, _ in DECLARATIONS if other != attribute})
    with pytest.raises(TypeError, match=f"Overrides defines {hook} but does not assign {attribute}"):
        type("Overrides", (UIDVariation,), body)
    body[attribute] = frozenset()
    assert issubclass(type("Overrides", (UIDVariation,), body), UIDVariation)


@pytest.mark.parametrize("hook", sorted({hook for _, hook in DECLARATIONS} | {"transform_result"}))
def test_a_hook_without_the_identity_declaration_runs_at_every_variant(hook):
    assert Variation().identity_variants() == frozenset()
    assert UIDVariation().identity_variants() == {0}
    body = {hook: getattr(UIDVariation, hook)}
    body.update({attribute: frozenset() for attribute, _ in DECLARATIONS})
    assert type("Overrides", (UIDVariation,), body)().identity_variants() == frozenset()
    body["identity_variants"] = UIDVariation.identity_variants
    assert type("Restated", (UIDVariation,), body)().identity_variants() == {0}
    # A body that defines no hook keeps the declaration it inherits.
    assert type("Quiet", (UIDVariation,), {})().identity_variants() == {0}


class _CountingUID(UIDVariation):
    """Counts the calls whose results reach the hook."""

    result_syscalls = UIDVariation.result_syscalls

    def __init__(self):
        super().__init__()
        self.seen = []

    def transform_result(self, index, request, result):
        self.seen.append(request.name)
        return super().transform_result(index, request, result)


class _EveryResultUID(_CountingUID):
    """Declares that its result hook may rewrite every call."""

    result_syscalls = frozenset(Syscall)


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
    variation = _CountingUID()
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


def test_a_footprint_naming_every_call_transforms_every_result():
    variation = _EveryResultUID()
    session, result, _ = _serve(variation)
    assert session.variations.result_syscalls() == frozenset(Syscall)
    assert len(variation.seen) == session.num_variants * result.wrapper_stats.checks


# -- per-name hook chains --------------------------------------------------------

HOOKS = ("canonicalize_request", "transform_request", "transform_result")

#: Arguments every call is tried with: ints a re-expression would rewrite at
#: each uid_t or descriptor position, and one carrying the uid_t sentinel.
CHAIN_ARGS = ((3, 4, 5), (70000, -1, 2))


def _full_walk(stack, hook, index, request, result=None):
    """*hook* composed over every variation of *stack*, with no chain."""
    if hook == "transform_result":
        for variation in reversed(stack.variations):
            result = variation.transform_result(index, request, result)
        return result
    for variation in stack.variations:
        request = getattr(variation, hook)(index, request)
    return request


def _chain_stacks():
    for name, num_variants, variation in REGISTERED:
        yield f"{name}-N{num_variants}", VariationStack([variation], num_variants)
    yield "address+uid", VariationStack([AddressPartitioning(), UIDVariation()], 2)
    yield "uid-orbit+fd-orbit", VariationStack(
        [
            registry.create("uid-orbit", {"num_variants": 3}),
            registry.create("fd-orbit", {"num_variants": 3}),
        ],
        3,
    )


CHAIN_STACKS = list(_chain_stacks())


@pytest.mark.parametrize(
    "stack", [stack for _, stack in CHAIN_STACKS], ids=[label for label, _ in CHAIN_STACKS]
)
def test_per_name_chains_equal_the_full_stack_walk(stack):
    ok, failed = SyscallResult.success(3), SyscallResult.failure(Errno.EBADF)
    for syscall in ALL_SYSCALLS:
        for args in CHAIN_ARGS:
            request = SyscallRequest(syscall, args)
            for index in range(stack.num_variants):
                for hook in HOOKS[:2]:
                    expected = _full_walk(stack, hook, index, request)
                    assert getattr(stack, hook)(index, request) == expected, (hook, syscall, index)
                for result in (ok, failed):
                    expected = _full_walk(stack, "transform_result", index, request, result)
                    assert stack.transform_result(index, request, result) == expected, (
                        syscall,
                        index,
                        result,
                    )


class _QuietAddress(AddressPartitioning):
    """Counts its hook calls; declares the empty footprints of its base."""

    canonical_syscalls = transform_syscalls = result_syscalls = frozenset()
    shared_rewrite_syscalls = frozenset()

    def __init__(self):
        super().__init__()
        self.calls = 0

    def canonicalize_request(self, index, request):
        self.calls += 1
        return super().canonicalize_request(index, request)

    def transform_request(self, index, request):
        self.calls += 1
        return super().transform_request(index, request)

    def transform_result(self, index, request, result):
        self.calls += 1
        return super().transform_result(index, request, result)


def _walk_every_hook(stack):
    request_count = 0
    for syscall in ALL_SYSCALLS:
        request = SyscallRequest(syscall, (3, 4))
        for index in range(stack.num_variants):
            stack.canonicalize_request(index, request)
            stack.transform_request(index, request)
            stack.transform_result(index, request, SyscallResult.success(3))
            request_count += 1
    return request_count


def test_a_variation_with_an_empty_footprint_is_never_called():
    quiet = _QuietAddress()
    _walk_every_hook(VariationStack([quiet, UIDVariation()]))
    assert quiet.calls == 0


class _WiderCanonicalization(UIDVariation):
    """Also canonicalizes ``time``, and declares it with the override."""

    canonical_syscalls = UIDVariation.canonical_syscalls | {Syscall.TIME}
    shared_rewrite_syscalls = UIDVariation.shared_rewrite_syscalls

    def canonicalize_request(self, index, request):
        if request.name is Syscall.TIME:
            return request.with_args(("canonical",))
        return super().canonicalize_request(index, request)


def test_a_redeclared_override_rewrites_exactly_the_calls_it_declares():
    wider = _WiderCanonicalization()
    stack = VariationStack([AddressPartitioning(), wider])
    assert stack.canonical_syscalls() == _WiderCanonicalization.canonical_syscalls
    for syscall in ALL_SYSCALLS:
        chain = stack._chain("canonicalize_request", syscall)
        declared = syscall in _WiderCanonicalization.canonical_syscalls
        assert [hook.__self__ for hook in chain] == ([wider] if declared else []), syscall
        for args in CHAIN_ARGS:
            request = SyscallRequest(syscall, args)
            for index in range(2):
                expected = _full_walk(stack, "canonicalize_request", index, request)
                assert stack.canonicalize_request(index, request) == expected, (syscall, index)
    request = SyscallRequest(Syscall.TIME, ())
    assert stack.canonicalize_request(1, request).args == ("canonical",)
    # The request hook is not overridden: its footprint is the base's.
    assert stack.transform_syscalls() == UIDVariation.transform_syscalls
    assert stack.transform_request(1, request) is request


# -- one UID decode per variant --------------------------------------------------

UID_REQUESTS = (
    SyscallRequest(Syscall.SETEUID, (1000,)),
    SyscallRequest(Syscall.SETRESUID, (1000, -1, 33)),
    SyscallRequest(Syscall.CHOWN, ("/srv/file", 1000, 1000)),
    SyscallRequest(Syscall.CC_LT, (1000, 2000)),
    SyscallRequest(Syscall.UID_VALUE, (1000,)),
)


def _uid_views(variation, index, request):
    """Everything variant *index* derives from *request* and a getuid result."""
    getuid = SyscallRequest(Syscall.GETUID, ())
    return (
        variation.canonicalize_request(index, request),
        variation.transform_request(index, request),
        variation.transform_result(index, getuid, SyscallResult.success(1000)),
        variation.encode(index, 1000),
        variation.decode(index, 1000),
    )


@pytest.mark.parametrize("adopt", ["rotate", "install"])
def test_decoding_under_new_masks_matches_a_fresh_variation(adopt):
    variation = registry.create("uid-keyed", {"num_variants": 3, "seed": 5})
    donor = registry.create("uid-keyed", {"num_variants": 3, "seed": 6})
    for request in UID_REQUESTS:
        # Decode once under the current masks, so a memo holds this request.
        for index in range(3):
            _uid_views(variation, index, request)
        before = variation.masks
        if adopt == "rotate":
            assert variation.rekey()
        else:
            donor.rekey()
            assert variation.rekey(donor.scheme.secret())
        assert variation.masks != before
        fresh = registry.create(
            "uid-orbit", {"num_variants": 3, "scheme": XorMaskScheme(variation.masks)}
        )
        for index in range(3):
            assert _uid_views(variation, index, request) == _uid_views(fresh, index, request)


def test_the_monitor_and_the_kernel_see_one_decode():
    variation = UIDVariation()
    request = SyscallRequest(Syscall.SETEUID, (1000 ^ variation.mask,))
    canonical = variation.canonicalize_request(1, request)
    assert canonical.args == (1000,)
    assert variation.transform_request(1, request) == canonical
    # Variant 0's identity decode keeps the request it was given.
    plain = SyscallRequest(Syscall.SETEUID, (1000,))
    assert variation.canonicalize_request(0, plain) is plain
    assert variation.transform_request(0, plain) is plain
    stack = VariationStack([AddressPartitioning(), variation])
    for name in ALL_SYSCALLS:
        assert stack.shares_rewrite(name) is (name in UIDVariation.shared_rewrite_syscalls), name


def test_a_shared_plan_sends_the_canonical_requests_to_the_kernel(monkeypatch):
    seen = {"outgoing": [], "hooked": []}
    rewrite = session_module._rewrite
    canonicalize = UIDVariation.canonicalize_request
    execute = SimulatedKernel.execute

    # An equivalent round never reaches the monitor, so the canonical
    # requests are captured where the plan's hooks make them.
    def spy_rewrite(chains, requests):
        rewritten = rewrite(chains, requests)
        if requests[0].name is Syscall.SETEUID:
            seen["canonical"] = list(rewritten)
        return rewritten

    def spy_canonicalize(self, index, request):
        if request.name is Syscall.SETEUID:
            seen["hooked"].append(index)
        return canonicalize(self, index, request)

    def spy_execute(self, process, request):
        if request.name is Syscall.SETEUID:
            seen["outgoing"].append(request)
        return execute(self, process, request)

    monkeypatch.setattr(session_module, "_rewrite", spy_rewrite)
    monkeypatch.setattr(UIDVariation, "canonicalize_request", spy_canonicalize)
    monkeypatch.setattr(SimulatedKernel, "execute", spy_execute)

    def program(context):
        yield context.libc.seteuid(context.uid_codec.constant(33))
        yield context.libc.exit(0)

    session = NVariantSession(build_standard_host(), program, [UIDVariation()])
    result = session.run()
    assert not result.alarms
    assert session.round_plan(Syscall.SETEUID).shared
    assert [request.args for request in seen["outgoing"]] == [(33,), (33,)]
    assert all(out is canon for out, canon in zip(seen["outgoing"], seen["canonical"]))
    # Variant 0's mask is 0, so only variant 1's request passes through a hook.
    assert seen["hooked"] == [1]
    assert [process.credentials.euid for process in session.processes] == [33, 33]


@pytest.mark.parametrize(
    "name,num_variants,variation",
    REGISTERED,
    ids=[f"{name}-N{n}" for name, n, _ in REGISTERED],
)
def test_an_out_of_range_variant_index_is_rejected(name, num_variants, variation):
    result = SyscallResult.success(3)
    for index in (-1, num_variants, num_variants + 5):
        for syscall in (Syscall.SETEUID, Syscall.GETUID, Syscall.CC_EQ, Syscall.READ):
            request = SyscallRequest(syscall, (3, 4))
            with pytest.raises(ValueError, match="out of range"):
                variation.canonicalize_request(index, request)
            with pytest.raises(ValueError, match="out of range"):
                variation.transform_request(index, request)
            with pytest.raises(ValueError, match="out of range"):
                variation.transform_result(index, request, result)
        if isinstance(variation, UIDVariation):
            with pytest.raises(ValueError, match="out of range"):
                variation.encode(index, 3)
            with pytest.raises(ValueError, match="out of range"):
                variation.decode(index, 3)


# -- the libc trap ----------------------------------------------------------------

#: Every named libc helper: sample arguments, and the call and arguments
#: (defaults filled in, conversions applied) its request must carry.
LIBC_CALLS = (
    ("exit", (3,), Syscall.EXIT, (3,)),
    ("getpid", (), Syscall.GETPID, ()),
    ("getuid", (), Syscall.GETUID, ()),
    ("geteuid", (), Syscall.GETEUID, ()),
    ("getgid", (), Syscall.GETGID, ()),
    ("getegid", (), Syscall.GETEGID, ()),
    ("setuid", (7,), Syscall.SETUID, (7,)),
    ("seteuid", (7,), Syscall.SETEUID, (7,)),
    ("setgid", (7,), Syscall.SETGID, (7,)),
    ("setegid", (7,), Syscall.SETEGID, (7,)),
    ("setgroups", ([1, 2],), Syscall.SETGROUPS, ((1, 2),)),
    ("open", ("/f",), Syscall.OPEN, ("/f", O_RDONLY, 0o644)),
    ("open", ("/f", O_WRONLY, 0o600), Syscall.OPEN, ("/f", O_WRONLY, 0o600)),
    ("close", (3,), Syscall.CLOSE, (3,)),
    ("read", (3, 10), Syscall.READ, (3, 10)),
    ("write", (3, b"x"), Syscall.WRITE, (3, b"x")),
    ("lseek", (3, 5), Syscall.LSEEK, (3, 5, 0)),
    ("stat", ("/f",), Syscall.STAT, ("/f",)),
    ("fstat", (3,), Syscall.FSTAT, (3,)),
    ("access", ("/f", 4), Syscall.ACCESS, ("/f", 4)),
    ("mkdir", ("/d",), Syscall.MKDIR, ("/d", 0o755)),
    ("unlink", ("/f",), Syscall.UNLINK, ("/f",)),
    ("chown", ("/f", 1, 2), Syscall.CHOWN, ("/f", 1, 2)),
    ("chmod", ("/f", 0o600), Syscall.CHMOD, ("/f", 0o600)),
    ("getdents", ("/d",), Syscall.GETDENTS, ("/d",)),
    ("socket", (), Syscall.SOCKET, ()),
    ("bind", (3, 80), Syscall.BIND, (3, 80)),
    ("listen", (3,), Syscall.LISTEN, (3, 128)),
    ("accept", (3,), Syscall.ACCEPT, (3,)),
    ("recv", (3, 10), Syscall.RECV, (3, 10)),
    ("send", (3, b"x"), Syscall.SEND, (3, b"x")),
    ("shutdown", (3,), Syscall.SHUTDOWN, (3,)),
    ("time", (), Syscall.TIME, ()),
    ("getrandom", (4,), Syscall.GETRANDOM, (4,)),
    ("nanosleep", (2,), Syscall.NANOSLEEP, (2,)),
    ("peek", (0x1000,), Syscall.PEEK, (0x1000, 4)),
    ("uid_value", (7,), Syscall.UID_VALUE, (7,)),
    ("cond_chk", (1,), Syscall.COND_CHK, (True,)),
    ("cc_eq", (1, 2), Syscall.CC_EQ, (1, 2)),
    ("cc_neq", (1, 2), Syscall.CC_NEQ, (1, 2)),
    ("cc_lt", (1, 2), Syscall.CC_LT, (1, 2)),
    ("cc_leq", (1, 2), Syscall.CC_LEQ, (1, 2)),
    ("cc_gt", (1, 2), Syscall.CC_GT, (1, 2)),
    ("cc_geq", (1, 2), Syscall.CC_GEQ, (1, 2)),
)


def test_every_libc_helper_is_covered():
    helpers = {
        name
        for name, member in inspect.getmembers(Libc, inspect.isfunction)
        if not name.startswith("_")
    }
    assert {name for name, *_ in LIBC_CALLS} == helpers - {"syscall"}


@pytest.mark.parametrize(
    "helper,args,syscall,expected",
    LIBC_CALLS,
    ids=[f"{helper}{len(args)}" for helper, args, _, _ in LIBC_CALLS],
)
def test_a_libc_helper_traps_with_the_public_request(helper, args, syscall, expected):
    request = getattr(Libc(), helper)(*args)
    assert type(request) is SyscallRequest
    assert request == SyscallRequest(syscall, expected)
    assert type(request.args) is tuple
    assert request == Libc.syscall(syscall, *expected)

    # A program traps with one ``yield`` and gets the reply as its value.
    def program():
        return (yield getattr(Libc(), helper)(*args))

    trap = program()
    assert next(trap) == request
    reply = SyscallResult.success(11)
    with pytest.raises(StopIteration) as stop:
        trap.send(reply)
    assert stop.value.value is reply


def test_the_public_request_constructors_still_check_the_name():
    with pytest.raises(TypeError):
        SyscallRequest("read", (3, 10))
    with pytest.raises(TypeError):
        Libc.syscall("read", 3, 10)
    with pytest.raises(TypeError):
        Libc().syscall(None)


def test_the_kernel_success_result_is_a_plain_ok_result():
    kernel = build_standard_host()
    process = kernel.spawn_process("p")
    result = kernel.execute(process, SyscallRequest(Syscall.GETPID, ()))
    assert result == SyscallResult.success(process.pid)
    assert result.ok and result.errno is Errno.OK


# -- open: one path lookup, the same errnos ----------------------------------------------


def _open_host():
    fs = FileSystem()
    fs.mkdir("/pub", mode=0o755)
    fs.mkdir("/tmp", mode=0o777)
    fs.create_file("/pub/readme", b"hello", mode=0o644)
    fs.create_file("/pub/secret", b"hidden", mode=0o600)
    kernel = SimulatedKernel(fs)
    user = kernel.spawn_process(
        "user",
        credentials=Credentials(ruid=1000, euid=1000, suid=1000, rgid=1000, egid=1000, sgid=1000),
    )
    return kernel, user


def _open(kernel, process, path, flags, mode=0o644):
    return kernel.execute(process, SyscallRequest(Syscall.OPEN, (path, flags, mode)))


@pytest.mark.parametrize(
    "path,flags,errno",
    [
        ("/pub/missing", O_RDONLY, Errno.ENOENT),
        ("/nodir/file", O_RDONLY, Errno.ENOENT),
        ("relative", O_RDONLY, Errno.ENOENT),
        # Through a regular file: without O_CREAT it reads as missing.
        ("/pub/readme/below", O_RDONLY, Errno.ENOENT),
        ("/pub/readme/below", O_WRONLY, Errno.ENOENT),
        ("/pub/readme/below", O_CREAT | O_WRONLY, Errno.EACCES),
        ("/tmp/new/below", O_CREAT | O_WRONLY, Errno.ENOENT),
        ("/pub/new", O_CREAT | O_WRONLY, Errno.EACCES),
        ("/pub/secret", O_RDONLY, Errno.EACCES),
        ("/pub/readme", O_WRONLY, Errno.EACCES),
        ("/pub", O_WRONLY, Errno.EISDIR),
        ("/pub", O_RDWR | O_CREAT, Errno.EISDIR),
    ],
)
def test_open_errnos(path, flags, errno):
    kernel, user = _open_host()
    existed = kernel.fs.exists(path)
    result = _open(kernel, user, path, flags)
    assert result.errno is errno
    assert kernel.fs.exists(path) == existed  # a failed open creates nothing


def test_open_through_a_regular_file_with_create_as_root_is_enotdir():
    kernel, _ = _open_host()
    root = kernel.spawn_process("root")
    assert _open(kernel, root, "/pub/readme/below", O_CREAT | O_WRONLY).errno is Errno.ENOTDIR


def test_open_with_create_makes_the_file_once():
    kernel, user = _open_host()
    created = _open(kernel, user, "/tmp/new", O_CREAT | O_WRONLY, 0o600)
    assert created.ok
    inode = kernel.fs.lookup("/tmp/new")
    assert (inode.uid, inode.gid, inode.mode & 0o777) == (1000, 1000, 0o600)
    assert user.fds.get(created.value).inode is inode
    reopened = _open(kernel, user, "/tmp/new", O_CREAT | O_RDWR)
    assert reopened.ok and reopened.value != created.value
    assert kernel.fs.lookup("/tmp/new") is inode
    readable = _open(kernel, user, "/pub/readme", O_RDONLY)
    assert readable.ok
    assert user.fds.get(readable.value).inode is kernel.fs.lookup("/pub/readme")


def _ladder(table, name):
    """The wrapper's dispatch, written out: the strategy each table entry gets."""
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
def test_wrapper_strategy_matches_the_ladder(table_name):
    table = get_table(table_name)
    for syscall in ALL_SYSCALLS:
        assert strategy_for(table, syscall) is _ladder(table, syscall), syscall
