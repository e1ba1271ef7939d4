"""The mini wu-ftpd: the second serving workload.

A single-process command/data-channel file server written against the same
simulated system-call interface as the mini-httpd, demonstrating that the
framework's protections are properties of the *system*, not of one
application.  Its privilege lifecycle is the same pattern the paper targets:
the server starts as root, maps its configured ``User``/``Group`` to numeric
ids via ``/etc/passwd``, caches those ids in memory, and *per transfer* drops
its effective uid to the worker id, reads the file, and escalates back to
root for logging.

Crucially the cached ids live in the **identical** vulnerable memory layout
as the httpd's (:func:`repro.apps.httpd.vulnerable.build_server_state` is
reused verbatim): a fixed 64-byte annotation buffer copied into without
bounds checks (``SITE ANNOTATE``, the FTP analogue of the ``X-Annotation``
header) sits directly in front of the worker uid/gid, admin uid and banner
pointer.  The same overflow payload bytes therefore corrupt the same fields
in both applications, which is what makes the cross-app detection-parity
experiments meaningful.

Protocol (one conversation per command connection, all lines CRLF-framed)::

    client: USER name              server: 331
    client: PASS secret            server: 230
    client: SITE ANNOTATE <value>  server: 200   (vulnerable copy)
    client: RETR <path>            server: 150 + file bytes on the data
                                           channel + 226, or 550
    client: QUIT                   server: 221

Each command connection is paired with one pre-connected data connection
(accepted FIFO from the data port), matching the driver side in
:mod:`repro.apps.catalog`.  ``RETR`` resolves its path against the
FTP root without ``..`` sanitisation -- the same deliberate traversal bug as
the httpd -- so a privilege-retention attack has an observable goal.
"""

from __future__ import annotations

import posixpath
from typing import Generator, Optional

from repro.apps.ftpd.config import FtpConfig, parse_ftp_config
from repro.apps.httpd.server import ServedRequest, ServerReport
from repro.apps.httpd.vulnerable import (
    ServerStateLayout,
    build_server_state,
    copy_annotation_header,
    read_banner,
)
from repro.core.nvariant import UIDCodec, VariantContext
from repro.kernel.filesystem import O_APPEND, O_RDONLY, O_WRONLY
from repro.kernel.host import FTPD_CONF
from repro.kernel.libc import Libc
from repro.kernel.passwd import UserDatabase
from repro.kernel.syscalls import SyscallRequest, SyscallResult
from repro.memory.address_space import AddressSpace

ServerProgram = Generator[SyscallRequest, SyscallResult, ServerReport]

#: Greeting sent on every accepted command connection.
GREETING = b"220 mini-ftpd ready\r\n"


def split_commands(raw: bytes) -> list[bytes]:
    """Split a command connection's buffer into its CRLF-framed lines."""
    return [line for line in raw.split(b"\r\n") if line]


class _FtpConnection:
    """One live command connection and its paired data channel."""

    def __init__(self, fd: int, data_fd: Optional[int], pending: list[bytes]):
        self.fd = fd
        self.data_fd = data_fd
        self.pending = pending


class MiniFtpd:
    """One build of the second case-study server.

    Parameters mirror :class:`repro.apps.httpd.server.MiniHttpd`:
    ``transformed`` selects the original or UID-transformed build,
    ``max_requests`` budgets the number of ``RETR`` transfers served, and
    ``multiplex`` bounds how many conversations are interleaved (one transfer
    per live connection per turn).
    """

    def __init__(
        self,
        libc: Libc,
        uid_codec: UIDCodec,
        address_space: AddressSpace,
        *,
        transformed: bool = False,
        max_requests: Optional[int] = None,
        multiplex: int = 1,
        config_path: str = FTPD_CONF,
    ):
        if multiplex < 1:
            raise ValueError("multiplex must be at least 1")
        self.libc = libc
        self.codec = uid_codec if transformed else UIDCodec.identity()
        self.address_space = address_space
        self.transformed = transformed
        self.max_requests = max_requests
        self.multiplex = multiplex
        self.config_path = config_path
        self.config: Optional[FtpConfig] = None
        self.layout: Optional[ServerStateLayout] = None
        self.report = ServerReport()

    # -- small generator helpers ------------------------------------------------

    def _read_whole_file(self, path: str):
        """Open, read fully and close *path*; returns (ok, data bytes)."""
        libc = self.libc
        opened = yield from libc.open(path, O_RDONLY)
        if not opened.ok:
            return False, b""
        fd = opened.value
        chunks = []
        while True:
            chunk = yield from libc.read(fd, 4096)
            if not chunk.ok or not chunk.value:
                break
            chunks.append(chunk.value)
        yield from libc.close(fd)
        return True, b"".join(chunks)

    def _is_root(self):
        """UID comparison against root, in the build-appropriate form."""
        libc = self.libc
        euid = (yield from libc.geteuid()).value
        if self.transformed:
            result = yield from libc.cc_eq(euid, self.codec.root)
            return bool(result.value)
        return euid == 0

    def _expose_uid(self, uid: int):
        """uid_value() exposure of a single UID use (transformed build only)."""
        if self.transformed:
            result = yield from self.libc.uid_value(uid)
            return result.value
        return uid

    # -- startup --------------------------------------------------------------------

    def _startup(self):
        """Read configuration and accounts, build state, bind both sockets.

        Returns ``(cmd_listen_fd, data_listen_fd, error_fd, transfer_fd)`` or
        raises ``RuntimeError`` on unrecoverable misconfiguration.
        """
        libc = self.libc

        ok, conf_bytes = yield from self._read_whole_file(self.config_path)
        if not ok:
            raise RuntimeError(f"cannot read configuration {self.config_path}")
        self.config = parse_ftp_config(conf_bytes.decode())

        ok, passwd_bytes = yield from self._read_whole_file("/etc/passwd")
        if not ok:
            raise RuntimeError("cannot read /etc/passwd")
        ok, group_bytes = yield from self._read_whole_file("/etc/group")
        if not ok:
            raise RuntimeError("cannot read /etc/group")
        database = UserDatabase.from_text(passwd_bytes.decode(), group_bytes.decode())

        worker_entry = database.getpwnam(self.config.user)
        group_entry = database.getgrnam(self.config.group)
        admin_entry = database.getpwnam(self.config.admin_user)

        worker_uid = yield from self._expose_uid(worker_entry.uid)
        worker_gid = group_entry.gid
        admin_uid = yield from self._expose_uid(admin_entry.uid)

        # The httpd's vulnerable layout, reused byte-for-byte: the same
        # overflow payloads reach the same fields in both applications.
        self.layout = build_server_state(
            self.address_space,
            worker_uid=worker_uid,
            worker_gid=worker_gid,
            admin_uid=admin_uid,
        )

        error_fd = (yield from libc.open(self.config.error_log, O_WRONLY | O_APPEND)).value
        transfer_fd = (yield from libc.open(self.config.transfer_log, O_WRONLY | O_APPEND)).value

        cmd_sock = yield from libc.socket()
        cmd_listen_fd = cmd_sock.value
        bound = yield from libc.bind(cmd_listen_fd, self.config.listen_port)
        if not bound.ok:
            raise RuntimeError(f"cannot bind port {self.config.listen_port}: {bound.errno.name}")
        yield from libc.listen(cmd_listen_fd, 128)

        data_sock = yield from libc.socket()
        data_listen_fd = data_sock.value
        bound = yield from libc.bind(data_listen_fd, self.config.data_port)
        if not bound.ok:
            raise RuntimeError(f"cannot bind port {self.config.data_port}: {bound.errno.name}")
        yield from libc.listen(data_listen_fd, 128)
        return cmd_listen_fd, data_listen_fd, error_fd, transfer_fd

    # -- command handling ----------------------------------------------------------------

    def _resolve_path(self, request_path: str) -> str:
        """Map a RETR argument onto the filesystem -- without '..' sanitisation."""
        path = request_path.strip()
        # Deliberately NOT normalising '..' components: the traversal bug that
        # makes a privilege-retention attack observable (same as the httpd).
        return posixpath.join(self.config.ftp_root, path.lstrip("/"))

    def _drop_privileges(self):
        """Per-transfer privilege drop using the cached (possibly corrupted) ids."""
        libc = self.libc
        worker_uid = self.layout.worker_uid.get()
        worker_gid = self.layout.worker_gid.get()
        am_root = yield from self._is_root()
        if am_root:
            yield from libc.setegid(worker_gid)
            yield from libc.seteuid(worker_uid)
        return am_root

    def _restore_privileges(self):
        """Escalate back to root for logging and administrative work."""
        libc = self.libc
        yield from libc.seteuid(self.codec.constant(0))
        yield from libc.setegid(self.codec.constant(0))

    def _log(self, error_fd: int, transfer_fd: int, path: str, status: int, size: int):
        """Write transfer and error log records (as root)."""
        libc = self.libc
        yield from libc.write(transfer_fd, f'client - "{path}" {status} {size}\n')
        if status >= 400:
            if self.transformed:
                # The paper's workaround: drop the UID value from the message
                # so the diversified representations cannot diverge in output.
                message = f"[error] status {status} retrieving {path}\n"
            else:
                euid = (yield from libc.geteuid()).value
                message = f"[error] status {status} retrieving {path} euid={euid}\n"
            yield from libc.write(error_fd, message)

    def _serve_retr(self, connection: _FtpConnection, path: str, error_fd: int, transfer_fd: int):
        """One transfer: banner deref, privilege drop, read, data-channel send."""
        libc = self.libc

        # Touch the banner through its pointer (address-injection detection
        # point under address-space partitioning), then drop privileges using
        # the cached -- possibly overflow-corrupted -- worker uid.
        read_banner(self.address_space, self.layout)
        was_root = yield from self._drop_privileges()

        full_path = self._resolve_path(path)
        content = b""
        opened = yield from libc.open(full_path, O_RDONLY)
        if not opened.ok:
            status = 550
            yield from libc.send(connection.fd, f"550 {path}: not available.\r\n")
        else:
            fd = opened.value
            chunks = []
            while True:
                chunk = yield from libc.read(fd, 8192)
                if not chunk.ok or not chunk.value:
                    break
                chunks.append(chunk.value)
            yield from libc.close(fd)
            content = b"".join(chunks)
            if connection.data_fd is None:
                status = 425
                yield from libc.send(connection.fd, b"425 Can't open data connection.\r\n")
                content = b""
            else:
                status = 226
                yield from libc.send(connection.fd, b"150 Opening data connection.\r\n")
                yield from libc.send(connection.data_fd, content)
                yield from libc.send(connection.fd, b"226 Transfer complete.\r\n")

        euid_during = (yield from libc.geteuid()).value
        if was_root:
            yield from self._restore_privileges()
        yield from self._log(error_fd, transfer_fd, path, status, len(content))

        self.report.requests_handled += 1
        self.report.served.append(
            ServedRequest(
                path=path,
                status=status,
                bytes_sent=len(content),
                euid_during_serve=euid_during,
            )
        )

    def _serve_turn(self, connection: _FtpConnection, error_fd: int, transfer_fd: int):
        """Process commands until one transfer is served; True when finished."""
        libc = self.libc
        while connection.pending:
            line = connection.pending.pop(0)
            if len(line) > self.config.max_command_size:
                yield from libc.send(connection.fd, b"500 Command line too long.\r\n")
                continue
            text = line.decode("latin-1")
            verb, _, argument = text.partition(" ")
            verb = verb.upper()
            if verb == "USER":
                yield from libc.send(connection.fd, b"331 Password required.\r\n")
            elif verb == "PASS":
                yield from libc.send(connection.fd, b"230 Login successful.\r\n")
            elif verb == "SITE":
                subverb, _, value = argument.partition(" ")
                if subverb.upper() == "ANNOTATE":
                    # The vulnerable copy: the FTP analogue of the httpd's
                    # X-Annotation header lands in the same fixed buffer.
                    copy_annotation_header(self.layout, value)
                    yield from libc.send(connection.fd, b"200 Annotation noted.\r\n")
                else:
                    yield from libc.send(connection.fd, b"502 SITE command not implemented.\r\n")
            elif verb == "RETR":
                yield from self._serve_retr(connection, argument, error_fd, transfer_fd)
                # One transfer per turn; the conversation resumes next turn.
                return not connection.pending
            elif verb == "QUIT":
                yield from libc.send(connection.fd, b"221 Goodbye.\r\n")
                return True
            else:
                yield from libc.send(connection.fd, b"502 Command not implemented.\r\n")
        return True

    def _close_connection(self, connection: _FtpConnection):
        libc = self.libc
        if connection.data_fd is not None:
            yield from libc.shutdown(connection.data_fd)
            yield from libc.close(connection.data_fd)
        yield from libc.shutdown(connection.fd)
        yield from libc.close(connection.fd)

    # -- the program ----------------------------------------------------------------------------

    def run(self) -> ServerProgram:
        """The server program: startup, multiplexed conversation loop, shutdown."""
        libc = self.libc
        cmd_listen_fd, data_listen_fd, error_fd, transfer_fd = yield from self._startup()

        active: list[_FtpConnection] = []
        #: Like the httpd: a failed accept means no client will connect
        #: again, so it permanently closes admission.
        accepting = True

        def budget_left() -> bool:
            return self.max_requests is None or self.report.requests_handled < self.max_requests

        while True:
            while accepting and budget_left() and len(active) < self.multiplex:
                accepted = yield from libc.accept(cmd_listen_fd)
                if not accepted.ok:
                    accepting = False
                    break
                conn_fd = accepted.value
                # Drain the conversation: the scripted client has already
                # half-closed, exactly like the httpd's keep-alive pipelines.
                chunks = []
                while True:
                    chunk = (
                        yield from libc.recv(conn_fd, self.config.max_command_size + 4096)
                    ).value
                    if not chunk:
                        break
                    chunks.append(chunk)
                # The paired data channel was pre-connected by the client and
                # is accepted FIFO: n-th command connection, n-th data channel.
                data_accepted = yield from libc.accept(data_listen_fd)
                data_fd = data_accepted.value if data_accepted.ok else None
                yield from libc.send(conn_fd, GREETING)
                active.append(_FtpConnection(conn_fd, data_fd, split_commands(b"".join(chunks))))
            if not active or not budget_left():
                break

            for connection in list(active):
                if not budget_left():
                    break
                finished = yield from self._serve_turn(connection, error_fd, transfer_fd)
                if finished:
                    yield from self._close_connection(connection)
                    active.remove(connection)

        # Budget exhausted with conversations still open: close them unserved.
        for connection in active:
            yield from self._close_connection(connection)

        yield from libc.shutdown(cmd_listen_fd)
        yield from libc.close(cmd_listen_fd)
        yield from libc.shutdown(data_listen_fd)
        yield from libc.close(data_listen_fd)
        yield from libc.close(error_fd)
        yield from libc.close(transfer_fd)
        yield from libc.exit(0)
        return self.report


def make_ftpd_factory(
    *,
    transformed: bool = True,
    max_requests: Optional[int] = None,
    multiplex: int = 1,
    config_path: str = FTPD_CONF,
    servers: Optional[list[MiniFtpd]] = None,
):
    """Build a program factory, optionally collecting the MiniFtpd instances."""

    def factory(context: VariantContext) -> ServerProgram:
        server = MiniFtpd(
            context.libc,
            context.uid_codec,
            context.address_space,
            transformed=transformed,
            max_requests=max_requests,
            multiplex=multiplex,
            config_path=config_path,
        )
        if servers is not None:
            servers.append(server)
        return server.run()

    return factory
