"""Integration-style tests for the syscall dispatcher and network stack."""

import pytest

from repro.api.spec import ADDRESS_UID_SPEC
from repro.attacks.payloads import benign_request
from repro.kernel.errors import Errno, KernelError
from repro.kernel.filesystem import O_CREAT, O_RDONLY, O_WRONLY, R_OK
from repro.kernel.host import build_standard_host
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.network import NetworkStack
from repro.kernel.syscalls import Syscall, request
from repro.load import build_serving_session
from repro.load.checkpoint import checkpoint


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

    def test_rename_requires_writable_parents(self, kernel, proc):
        proc.credentials.setuid(33)
        for old, new in (("/etc/shadow", "/tmp/shadow"), ("/tmp", "/etc/tmp")):
            assert call(kernel, proc, Syscall.RENAME, old, new).errno is Errno.EACCES
        assert kernel.fs.exists("/etc/shadow") and not kernel.fs.exists("/tmp/shadow")
        call(kernel, proc, Syscall.OPEN, "/tmp/mine", O_WRONLY | O_CREAT)
        assert call(kernel, proc, Syscall.RENAME, "/tmp/mine", "/tmp/moved").ok

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

    def test_accept_on_empty_listener_blocks_through_the_hook(self, kernel, proc):
        sock = call(kernel, proc, Syscall.SOCKET).value
        call(kernel, proc, Syscall.BIND, sock, 8080)
        listener = kernel.network.listeners[8080]
        calls, queued = [], []

        def arrive(empty_listener):
            calls.append(empty_listener)
            kernel.clock += 50  # the wait for the client, in virtual time
            queued.append(kernel.client_connect(8080, b"late"))

        listener.on_empty = arrive
        clock = kernel.clock
        conn_fd = call(kernel, proc, Syscall.ACCEPT, sock).value
        assert calls == [listener]
        assert kernel.clock == clock + 1 + 50
        assert proc.fds.get(conn_fd).endpoint is queued[0]
        assert call(kernel, proc, Syscall.RECV, conn_fd, 100).value == b"late"

    def test_accept_hook_is_skipped_while_connections_are_queued(self, kernel, proc):
        sock = call(kernel, proc, Syscall.SOCKET).value
        call(kernel, proc, Syscall.BIND, sock, 8080)
        calls = []
        kernel.network.listeners[8080].on_empty = calls.append
        kernel.client_connect(8080, b"early")
        assert call(kernel, proc, Syscall.ACCEPT, sock).ok
        assert calls == []

    def test_accept_hook_that_queues_nothing_returns_eagain(self, kernel, proc):
        sock = call(kernel, proc, Syscall.SOCKET).value
        call(kernel, proc, Syscall.BIND, sock, 8080)
        calls = []
        kernel.network.listeners[8080].on_empty = calls.append
        assert call(kernel, proc, Syscall.ACCEPT, sock).errno is Errno.EAGAIN
        assert len(calls) == 1

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
        assert list(listener.pending) == [connection]
        assert listener.accept() is connection

    def test_connections_compare_by_identity(self):
        network = NetworkStack()
        listener = network.bind(80)
        first = network.connect(80, b"GET /")
        second = network.connect(80, b"GET /")
        second.connection_id = first.connection_id  # equal in every field
        assert first != second
        listener.pending.remove(second)
        assert list(listener.pending) == [first]
        assert second not in listener.pending

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
        assert len(listener.pending) == 1

    def test_send_after_server_close_raises_epipe(self):
        network = NetworkStack()
        network.bind(80)
        connection = network.connect(80, b"x")
        connection.closed_by_server = True
        with pytest.raises(KernelError) as info:
            connection.send(b"late")
        assert info.value.errno is Errno.EPIPE


class TestConnectionBytes:
    """A connection holds each sent chunk once and joins them on the first read."""

    @staticmethod
    def _served(kernel, proc, request_bytes=b"x"):
        """A listening socket, one accepted connection, and its descriptor."""
        sock = call(kernel, proc, Syscall.SOCKET).value
        call(kernel, proc, Syscall.BIND, sock, 8080)
        connection = kernel.client_connect(8080, request_bytes)
        return connection, call(kernel, proc, Syscall.ACCEPT, sock).value

    @pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))])
    def test_a_buffer_mutated_after_send_leaves_the_response(self, kernel, proc, wrap):
        connection, fd = self._served(kernel, proc)
        buffer = wrap(b"pong")
        assert call(kernel, proc, Syscall.SEND, fd, buffer).value == 4
        buffer[0:4] = b"XXXX"
        assert connection.response_bytes() == b"pong"
        direct = wrap(b"late")
        connection.send(direct)
        direct[0:4] = b"YYYY"
        assert connection.response_bytes() == b"ponglate"

    def test_chunks_join_in_send_order(self, kernel, proc):
        connection, fd = self._served(kernel, proc)
        for chunk in (b"HTTP/1.0 200 OK\r\n", b"", b"\r\n", b"body"):
            call(kernel, proc, Syscall.SEND, fd, chunk)
        call(kernel, proc, Syscall.WRITE, fd, b"!")
        assert connection.outbound == [b"HTTP/1.0 200 OK\r\n", b"\r\n", b"body", b"!"]
        assert connection.response_bytes() == b"HTTP/1.0 200 OK\r\n\r\nbody!"

    def test_a_sent_bytes_object_is_kept_not_copied(self):
        network = NetworkStack()
        network.bind(80)
        connection = network.connect(80, b"x")
        chunk = b"one response"
        connection.send(chunk)
        assert connection.response_bytes() is chunk

    def test_repeated_reads_return_the_same_object(self):
        network = NetworkStack()
        network.bind(80)
        connection = network.connect(80, b"x")
        connection.send(b"a")
        connection.send(b"b")
        first = connection.response_bytes()
        assert first == b"ab"
        assert connection.response_bytes() is first
        assert connection.outbound == [first]
        connection.send(b"c")
        assert connection.response_bytes() == b"abc"

    def test_an_empty_connection_reads_empty_and_stays_falsy(self):
        network = NetworkStack()
        network.bind(80)
        connection = network.connect(80, b"x")
        assert connection.send(b"") == 0
        assert connection.response_bytes() == b""
        assert not connection.outbound
        assert connection.response_bytes() == b""
        assert not connection.outbound

    def test_send_after_shutdown_raises_epipe_and_counts_one_close(self, kernel, proc):
        connection, fd = self._served(kernel, proc)
        call(kernel, proc, Syscall.SEND, fd, b"bye")
        assert kernel.network.server_closes == 0
        assert call(kernel, proc, Syscall.SHUTDOWN, fd).ok
        assert kernel.network.server_closes == 1
        assert call(kernel, proc, Syscall.SEND, fd, b"late").errno is Errno.EPIPE
        assert connection.response_bytes() == b"bye"

    def test_a_checkpoint_of_a_pending_connection_keeps_its_record(self):
        session = build_serving_session(ADDRESS_UID_SPEC, "httpd", max_requests=1)
        connection = session.kernel.client_connect(80, benign_request(), client="c0")
        record = checkpoint(session).to_dict()["pending"]
        assert record == [{"client": "c0", "data": benign_request().hex(), "port": 80}]
        assert bytes(connection.inbound) == benign_request()
        assert not connection.outbound


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
