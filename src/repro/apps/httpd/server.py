"""The mini Apache: the paper's case-study server.

A single-process, event-loop static file server written against the simulated
system-call interface.  Its privilege lifecycle mirrors the pattern the paper
targets (Section 3): the server starts as root, reads ``/etc/passwd`` to map
its configured ``User``/``Group`` to numeric ids, caches those ids in memory,
and *per request* drops its effective uid to the worker id, serves the file,
and escalates back to root for logging and administrative work.  The cached
``uid_t`` values sit behind a fixed-size header buffer
(:mod:`repro.apps.httpd.vulnerable`), so a crafted request corrupts exactly
the data the privilege drop consults -- Chen et al.'s non-control-data attack.

Two builds of the server exist, selected by ``transformed``:

* the **original** build uses literal UID constants and ordinary comparisons
  (and, like the paper's unmodified Apache, writes the UID value into error
  log messages);
* the **transformed** build is the output of the Section 3.3 source
  transformation: UID constants are reexpressed through the variant's codec,
  UID comparisons go through the ``cc_*`` detection calls, single UID uses
  are exposed with ``uid_value``, UID-influenced conditionals are wrapped in
  ``cond_chk``, and the UID is removed from log output (the paper's
  workaround for the log-divergence problem).
"""

from __future__ import annotations

import dataclasses
import posixpath
from typing import Generator, Optional

from repro.apps.httpd.config import ServerConfig, parse_config
from repro.apps.httpd.http import (
    HttpParseError,
    HttpRequest,
    HttpResponse,
    error_response,
    file_response,
    parse_request,
    split_requests,
)
from repro.apps.httpd.vulnerable import (
    ServerStateLayout,
    VULNERABLE_HEADER,
    build_server_state,
    copy_annotation_header,
    read_banner,
)
from repro.core.nvariant import UIDCodec, VariantContext
from repro.kernel.errors import Errno
from repro.kernel.filesystem import O_APPEND, O_RDONLY, O_WRONLY
from repro.kernel.host import HTTPD_CONF
from repro.kernel.libc import Libc
from repro.kernel.passwd import UserDatabase
from repro.kernel.syscalls import SyscallRequest, SyscallResult
from repro.memory.address_space import AddressSpace

ServerProgram = Generator[SyscallRequest, SyscallResult, "ServerReport"]

#: Request header that authorises /admin requests (orthogonal to UIDs).
ADMIN_TOKEN_HEADER = "X-Admin-Token"

#: Expected admin token value.
ADMIN_TOKEN = "letmein"


@dataclasses.dataclass
class ServedRequest:
    """Bookkeeping about one handled request (used by tests and metrics)."""

    path: str
    status: int
    bytes_sent: int
    euid_during_serve: int


@dataclasses.dataclass
class ServerReport:
    """What the server program returns when it exits cleanly."""

    requests_handled: int = 0
    served: list[ServedRequest] = dataclasses.field(default_factory=list)

    def status_counts(self) -> dict[int, int]:
        """Histogram of response status codes."""
        counts: dict[int, int] = {}
        for request in self.served:
            counts[request.status] = counts.get(request.status, 0) + 1
        return counts


class MiniHttpd:
    """One build of the case-study web server.

    Parameters
    ----------
    libc, uid_codec, address_space:
        The variant's execution context pieces.  For a plain single-process
        run the codec is the identity and the address space unpartitioned.
    transformed:
        Selects the original or UID-transformed build (see module docstring).
    max_requests:
        Stop after this many served requests (``None`` = serve until an
        accept fails).  Keep-alive connections may carry several
        requests each, so this is a request budget, not a connection count.
    multiplex:
        Maximum number of connections served concurrently.  With the default
        of 1 the server is the original serial accept-serve-close loop; with
        ``M > 1`` it accepts up to M connections and round-robins one request
        from each per turn, which is how one server instance sustains M
        concurrent keep-alive clients.
    config_path:
        Path of the configuration file on the simulated host.
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
        config_path: str = HTTPD_CONF,
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
        self.config: Optional[ServerConfig] = None
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

    def _uids_equal(self, left: int, right: int):
        """UID equality, through cc_eq in the transformed build."""
        if self.transformed:
            result = yield from self.libc.cc_eq(left, right)
            return bool(result.value)
        return left == right

    def _expose_uid(self, uid: int):
        """uid_value() exposure of a single UID use (transformed build only)."""
        if self.transformed:
            result = yield from self.libc.uid_value(uid)
            return result.value
        return uid

    def _check_condition(self, condition: bool):
        """cond_chk() wrapping of a UID-influenced conditional."""
        if self.transformed:
            result = yield from self.libc.cond_chk(bool(condition))
            return bool(result.value)
        return bool(condition)

    # -- startup --------------------------------------------------------------------

    def _startup(self):
        """Read configuration and account data, build state, bind the socket.

        Returns ``(listen_fd, error_fd, access_fd)`` or raises ``RuntimeError``
        on unrecoverable misconfiguration.
        """
        libc = self.libc

        ok, conf_bytes = yield from self._read_whole_file(self.config_path)
        if not ok:
            raise RuntimeError(f"cannot read configuration {self.config_path}")
        self.config = parse_config(conf_bytes.decode())

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

        # Expose the freshly obtained UID values to the monitor at their first
        # use (Section 3.5: "pw = getpwname(uid_value(uid))").
        worker_uid = yield from self._expose_uid(worker_entry.uid)
        worker_gid = group_entry.gid
        admin_uid = yield from self._expose_uid(admin_entry.uid)

        self.layout = build_server_state(
            self.address_space,
            worker_uid=worker_uid,
            worker_gid=worker_gid,
            admin_uid=admin_uid,
        )

        error_fd = (yield from libc.open(self.config.error_log, O_WRONLY | O_APPEND)).value
        access_fd = (yield from libc.open(self.config.access_log, O_WRONLY | O_APPEND)).value

        sock = yield from libc.socket()
        listen_fd = sock.value
        bound = yield from libc.bind(listen_fd, self.config.listen_port)
        if not bound.ok:
            raise RuntimeError(f"cannot bind port {self.config.listen_port}: {bound.errno.name}")
        yield from libc.listen(listen_fd, 128)
        return listen_fd, error_fd, access_fd

    # -- request handling ----------------------------------------------------------------

    def _resolve_path(self, request_path: str) -> str:
        """Map a request path onto the filesystem -- without '..' sanitisation."""
        path = request_path.split("?", 1)[0]
        if path.endswith("/"):
            path += "index.html"
        # Deliberately NOT normalising '..' components: the traversal bug that
        # makes a privilege-retention attack observable.
        return posixpath.join(self.config.document_root, path.lstrip("/"))

    def _drop_privileges(self):
        """Per-request privilege drop using the cached (possibly corrupted) ids."""
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

    def _serve_admin(self, request: HttpRequest):
        """Handle /admin requests: token check, escalate, read privileged data."""
        libc = self.libc
        if request.header(ADMIN_TOKEN_HEADER) != ADMIN_TOKEN:
            return error_response(403, "admin token required")
        euid = (yield from libc.geteuid()).value
        already_admin = yield from self._uids_equal(euid, self.layout.admin_uid.get())
        needs_escalation = yield from self._check_condition(not already_admin)
        if needs_escalation:
            # Administrative work requires full privileges.
            yield from libc.seteuid(self.codec.constant(0))
        ok, secret = yield from self._read_whole_file("/root/secrets.txt")
        if not ok:
            return error_response(500, "admin data unavailable")
        body = b"<html><body><h1>admin status</h1><pre>" + secret + b"</pre></body></html>"
        return HttpResponse(status=200, body=body)

    def _serve_static(self, request: HttpRequest):
        """Serve a static file with the worker's (dropped) privileges."""
        libc = self.libc
        full_path = self._resolve_path(request.path)
        opened = yield from libc.open(full_path, O_RDONLY)
        if not opened.ok:
            if opened.errno is Errno.EACCES:
                return error_response(403, full_path)
            if opened.errno in (Errno.ENOENT, Errno.ENOTDIR):
                return error_response(404, full_path)
            return error_response(500, opened.errno.name)
        fd = opened.value
        chunks = []
        while True:
            chunk = yield from libc.read(fd, 8192)
            if not chunk.ok or not chunk.value:
                break
            chunks.append(chunk.value)
        yield from libc.close(fd)
        content = b"".join(chunks)
        response = file_response(content, full_path)
        if request.method == "HEAD":
            response = HttpResponse(
                status=200, body=b"", content_type=response.content_type
            )
        return response

    def _handle_request(self, raw: bytes):
        """Process one raw request into a response."""
        libc = self.libc
        try:
            request = parse_request(raw)
        except HttpParseError as error:
            return error_response(400, str(error)), "-"
        if len(raw) > self.config.max_request_size:
            return error_response(413, "request too large"), request.path
        if request.method not in ("GET", "HEAD"):
            return error_response(405, request.method), request.path

        # The vulnerable header copy happens before any privilege operation,
        # exactly where a parsing/logging helper would copy header data in C.
        annotation = request.header(VULNERABLE_HEADER)
        if annotation:
            copy_annotation_header(self.layout, annotation)

        # Touch the banner through its pointer (address-injection detection
        # point under address-space partitioning).
        read_banner(self.address_space, self.layout)

        was_root = yield from self._drop_privileges()

        if request.path.startswith("/admin"):
            response = yield from self._serve_admin(request)
        else:
            response = yield from self._serve_static(request)

        euid_during = (yield from libc.geteuid()).value

        if was_root:
            yield from self._restore_privileges()
        return response, request.path, euid_during

    def _log(self, error_fd: int, access_fd: int, path: str, response: HttpResponse):
        """Write access and error log records (as root)."""
        libc = self.libc
        yield from libc.write(
            access_fd, f"client - \"{path}\" {response.status} {len(response.body)}\n"
        )
        if response.status >= 400:
            if self.transformed:
                # The paper's workaround: drop the UID value from the message
                # so the diversified representations cannot diverge in output.
                message = f"[error] status {response.status} serving {path}\n"
            else:
                euid = (yield from libc.geteuid()).value
                message = f"[error] status {response.status} serving {path} euid={euid}\n"
            yield from libc.write(error_fd, message)

    # -- the program ----------------------------------------------------------------------------

    def _serve_one(self, conn_fd: int, raw_request: bytes, error_fd: int, access_fd: int):
        """Handle one request and send its response on *conn_fd*."""
        libc = self.libc
        outcome = yield from self._handle_request(raw_request)
        if len(outcome) == 3:
            response, path, euid_during = outcome
        else:
            response, path = outcome
            euid_during = (yield from libc.geteuid()).value

        yield from self._log(error_fd, access_fd, path, response)
        yield from libc.send(conn_fd, response.to_bytes())

        self.report.requests_handled += 1
        self.report.served.append(
            ServedRequest(
                path=path,
                status=response.status,
                bytes_sent=len(response.body),
                euid_during_serve=euid_during,
            )
        )

    def run(self) -> ServerProgram:
        """The server program: startup, multiplexed request loop, shutdown.

        Up to ``multiplex`` connections are held open at once; each accepted
        connection's buffer is split into its pipelined keep-alive requests
        and the loop serves one request per live connection per turn, so no
        single slow client monopolises the server.  ``multiplex=1`` degrades
        to the original serial accept-serve-close loop.
        """
        libc = self.libc
        listen_fd, error_fd, access_fd = yield from self._startup()

        #: (conn_fd, unserved pipelined requests) per live connection.
        active: list[tuple[int, list[bytes]]] = []
        #: A failed accept means no client will connect again, so it
        #: permanently closes admission instead of being re-polled on every
        #: scheduling turn.
        accepting = True

        def budget_left() -> bool:
            return self.max_requests is None or self.report.requests_handled < self.max_requests

        while True:
            while accepting and budget_left() and len(active) < self.multiplex:
                accepted = yield from libc.accept(listen_fd)
                if not accepted.ok:
                    accepting = False
                    break
                conn_fd = accepted.value
                # Drain the connection: keep-alive pipelines may exceed one
                # recv window, and the client has already half-closed.
                chunks = []
                while True:
                    chunk = (yield from libc.recv(conn_fd, self.config.max_request_size + 4096)).value
                    if not chunk:
                        break
                    chunks.append(chunk)
                active.append((conn_fd, split_requests(b"".join(chunks))))
            if not active or not budget_left():
                break

            for connection in list(active):
                if not budget_left():
                    break
                conn_fd, pending = connection
                yield from self._serve_one(conn_fd, pending.pop(0), error_fd, access_fd)
                if not pending:
                    yield from libc.shutdown(conn_fd)
                    yield from libc.close(conn_fd)
                    active.remove(connection)

        # Budget exhausted with connections still open: close them unserved.
        for conn_fd, _ in active:
            yield from libc.shutdown(conn_fd)
            yield from libc.close(conn_fd)

        yield from libc.shutdown(listen_fd)
        yield from libc.close(listen_fd)
        yield from libc.close(error_fd)
        yield from libc.close(access_fd)
        yield from libc.exit(0)
        return self.report


def make_httpd_factory(
    *,
    transformed: bool = True,
    max_requests: Optional[int] = None,
    multiplex: int = 1,
    config_path: str = HTTPD_CONF,
    servers: Optional[list[MiniHttpd]] = None,
):
    """Build a program factory, optionally collecting the MiniHttpd instances.

    ``servers``, when provided, receives each variant's server object so
    callers (tests, experiment drivers) can inspect per-variant reports after
    the run.
    """

    def factory(context: VariantContext) -> ServerProgram:
        server = MiniHttpd(
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
