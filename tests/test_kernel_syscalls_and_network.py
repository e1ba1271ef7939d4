"""Integration-style tests for the syscall dispatcher and network stack."""

import pytest

from repro.kernel.errors import Errno, KernelError
from repro.kernel.filesystem import O_CREAT, O_RDONLY, O_WRONLY, R_OK
from repro.kernel.host import build_standard_host
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.network import NetworkStack
from repro.kernel.syscalls import Syscall, request


@pytest.fixture
def kernel():
    return build_standard_host()


@pytest.fixture
def proc(kernel):
    return kernel.spawn_process("tester")


def call(kernel, proc, name, *args):
    return kernel.execute(proc, request(name, *args))


class TestFileSyscalls:
    def test_open_read_close(self, kernel, proc):
        fd = call(kernel, proc, Syscall.OPEN, "/etc/passwd", O_RDONLY).value
        data = call(kernel, proc, Syscall.READ, fd, 4096).value
        assert b"www-data" in data
        assert call(kernel, proc, Syscall.CLOSE, fd).ok

    def test_open_missing_file_returns_enoent(self, kernel, proc):
        result = call(kernel, proc, Syscall.OPEN, "/etc/nothing", O_RDONLY)
        assert not result.ok
        assert result.errno is Errno.ENOENT

    def test_open_creates_with_caller_ownership(self, kernel, proc):
        proc.credentials.setuid(1000)
        result = call(kernel, proc, Syscall.OPEN, "/tmp/scratch", O_WRONLY | O_CREAT)
        assert result.ok
        assert kernel.fs.stat("/tmp/scratch").uid == 1000

    def test_permission_denied_after_privilege_drop(self, kernel, proc):
        proc.credentials.setuid(33)
        result = call(kernel, proc, Syscall.OPEN, "/etc/shadow", O_RDONLY)
        assert result.errno is Errno.EACCES

    def test_write_and_stat(self, kernel, proc):
        fd = call(kernel, proc, Syscall.OPEN, "/var/log/httpd/error_log", O_WRONLY).value
        written = call(kernel, proc, Syscall.WRITE, fd, b"boom\n").value
        assert written == 5
        assert call(kernel, proc, Syscall.FSTAT, fd).value[4] == 5

    def test_access_and_getdents(self, kernel, proc):
        assert call(kernel, proc, Syscall.ACCESS, "/etc/passwd", R_OK).ok
        names = call(kernel, proc, Syscall.GETDENTS, "/etc").value
        assert "passwd" in names

    def test_bad_descriptor_read(self, kernel, proc):
        assert call(kernel, proc, Syscall.READ, 77, 10).errno is Errno.EBADF

    def test_unlink_requires_writable_parent(self, kernel, proc):
        proc.credentials.setuid(1001)
        assert call(kernel, proc, Syscall.UNLINK, "/etc/passwd").errno is Errno.EACCES

    def test_chown_requires_privilege(self, kernel, proc):
        proc.credentials.setuid(1000)
        assert call(kernel, proc, Syscall.CHOWN, "/tmp", 1000, 1000).errno is Errno.EPERM

    def test_unknown_syscall_arguments_return_einval(self, kernel, proc):
        assert call(kernel, proc, Syscall.OPEN).errno is Errno.EINVAL

    def test_too_many_arguments_are_refused_before_the_handler(self, kernel, proc):
        result = call(kernel, proc, Syscall.OPEN, "/tmp/never", O_WRONLY | O_CREAT, 0o644, 7)
        assert result.errno is Errno.EINVAL
        assert not kernel.fs.exists("/tmp/never")
        assert call(kernel, proc, Syscall.GETPID, 1).errno is Errno.EINVAL

    def test_optional_arguments_and_varargs_handlers_accept_any_valid_count(
        self, kernel, proc
    ):
        assert call(kernel, proc, Syscall.OPEN, "/etc/passwd").ok
        assert call(kernel, proc, Syscall.OPEN, "/etc/passwd", O_RDONLY, 0o644).ok
        # fork/waitpid take *args: any count reaches the handler, which refuses.
        assert call(kernel, proc, Syscall.FORK, 1, 2, 3, 4).errno is Errno.ENOSYS

    def test_type_error_inside_a_handler_propagates(self, kernel, proc):
        # int(None) fails inside _sys_exit with a message that mentions
        # "argument"; the call's arity is fine, so this is a handler bug and
        # must surface rather than turn into EINVAL.
        with pytest.raises(TypeError, match="argument"):
            call(kernel, proc, Syscall.EXIT, None)


class TestCredentialSyscalls:
    def test_getuid_family(self, kernel, proc):
        assert call(kernel, proc, Syscall.GETUID).value == 0
        assert call(kernel, proc, Syscall.GETEUID).value == 0

    def test_setuid_updates_process(self, kernel, proc):
        assert call(kernel, proc, Syscall.SETUID, 33).ok
        assert proc.credentials.euid == 33
        assert call(kernel, proc, Syscall.SETUID, 0).errno is Errno.EPERM

    def test_seteuid_round_trip(self, kernel, proc):
        call(kernel, proc, Syscall.SETEUID, 33)
        assert proc.credentials.euid == 33
        call(kernel, proc, Syscall.SETEUID, 0)
        assert proc.credentials.is_privileged()

    def test_detection_calls_single_variant_semantics(self, kernel, proc):
        assert call(kernel, proc, Syscall.UID_VALUE, 42).value == 42
        assert call(kernel, proc, Syscall.COND_CHK, True).value is True
        assert call(kernel, proc, Syscall.CC_EQ, 5, 5).value is True
        assert call(kernel, proc, Syscall.CC_NEQ, 5, 5).value is False
        assert call(kernel, proc, Syscall.CC_LT, 3, 5).value is True
        assert call(kernel, proc, Syscall.CC_LEQ, 5, 5).value is True
        assert call(kernel, proc, Syscall.CC_GT, 3, 5).value is False
        assert call(kernel, proc, Syscall.CC_GEQ, 5, 3).value is True

    def test_exit_marks_process_dead(self, kernel, proc):
        call(kernel, proc, Syscall.EXIT, 7)
        assert not proc.alive
        assert proc.exit_code == 7
        assert call(kernel, proc, Syscall.GETPID).errno is Errno.ESRCH

    def test_fork_unsupported(self, kernel, proc):
        assert call(kernel, proc, Syscall.FORK).errno is Errno.ENOSYS


class TestSocketSyscalls:
    def test_bind_listen_accept_recv_send(self, kernel, proc):
        sock = call(kernel, proc, Syscall.SOCKET).value
        assert call(kernel, proc, Syscall.BIND, sock, 80).ok
        assert call(kernel, proc, Syscall.LISTEN, sock, 16).ok
        connection = kernel.client_connect(80, b"ping")
        conn_fd = call(kernel, proc, Syscall.ACCEPT, sock).value
        assert call(kernel, proc, Syscall.RECV, conn_fd, 100).value == b"ping"
        call(kernel, proc, Syscall.SEND, conn_fd, b"pong")
        assert connection.response_bytes() == b"pong"

    def test_privileged_port_requires_root(self, kernel, proc):
        proc.credentials.setuid(33)
        sock = call(kernel, proc, Syscall.SOCKET).value
        assert call(kernel, proc, Syscall.BIND, sock, 80).errno is Errno.EACCES

    def test_accept_with_empty_backlog_returns_eagain(self, kernel, proc):
        sock = call(kernel, proc, Syscall.SOCKET).value
        call(kernel, proc, Syscall.BIND, sock, 8080)
        assert call(kernel, proc, Syscall.ACCEPT, sock).errno is Errno.EAGAIN

    def test_double_bind_rejected(self, kernel, proc):
        s1 = call(kernel, proc, Syscall.SOCKET).value
        s2 = call(kernel, proc, Syscall.SOCKET).value
        call(kernel, proc, Syscall.BIND, s1, 8081)
        assert call(kernel, proc, Syscall.BIND, s2, 8081).errno is Errno.EADDRINUSE


class TestNetworkStack:
    def test_connect_before_bind_is_adopted(self):
        network = NetworkStack()
        connection = network.connect(9999, b"early")
        listener = network.bind(9999)
        assert listener.has_pending()
        assert listener.accept() is connection

    def test_connect_queues_request_bytes(self):
        network = NetworkStack()
        network.bind(80)
        connection = network.connect(80, b"GET /")
        assert connection.recv(100) == b"GET /"
        assert connection.recv(10) == b""

    def test_backlog_limit(self):
        network = NetworkStack()
        listener = network.bind(80, backlog=1)
        network.connect(80, b"a")
        with pytest.raises(KernelError) as info:
            network.connect(80, b"b")
        assert info.value.errno is Errno.ECONNREFUSED
        assert listener.has_pending()

    def test_send_after_server_close_raises_epipe(self):
        network = NetworkStack()
        network.bind(80)
        connection = network.connect(80, b"x")
        connection.closed_by_server = True
        with pytest.raises(KernelError) as info:
            connection.send(b"late")
        assert info.value.errno is Errno.EPIPE


class TestKernelBookkeeping:
    def test_stats_count_syscalls(self, kernel, proc):
        before = kernel.stats.syscall_count
        call(kernel, proc, Syscall.GETPID)
        call(kernel, proc, Syscall.TIME)
        assert kernel.stats.syscall_count == before + 2
        assert kernel.stats.syscall_breakdown["getpid"] >= 1

    def test_clock_advances(self, kernel, proc):
        t0 = call(kernel, proc, Syscall.TIME).value
        call(kernel, proc, Syscall.NANOSLEEP, 10)
        t1 = call(kernel, proc, Syscall.TIME).value
        assert t1 > t0

    def test_getrandom_is_deterministic_per_kernel(self):
        k1, k2 = SimulatedKernel(), SimulatedKernel()
        p1, p2 = k1.spawn_process(), k2.spawn_process()
        r1 = k1.execute(p1, request(Syscall.GETRANDOM, 16)).value
        r2 = k2.execute(p2, request(Syscall.GETRANDOM, 16)).value
        assert r1 == r2 and len(r1) == 16

    def test_kill_posts_fatal_signal(self, kernel):
        killer = kernel.spawn_process("killer")
        victim = kernel.spawn_process("victim")
        result = kernel.execute(killer, request(Syscall.KILL, victim.pid, 9))
        assert result.ok
        assert not victim.alive
