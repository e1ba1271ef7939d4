"""The server skeleton both case-study apps run on.

The paper's case study (Section 3) is one privilege pattern, and both serving
apps follow it.  The server starts as root, reads its configuration and maps
the configured ``User``/``Group`` to numeric ids through ``/etc/passwd`` and
``/etc/group``.  It caches those ids in the vulnerable state layout
(:func:`repro.apps.httpd.vulnerable.build_server_state`, one layout for both
apps, so the same overflow bytes reach the same fields).  Per request it
drops its effective uid to the worker id, serves, and escalates back to root
for logging.  :class:`MiniServer` holds that pattern once: the constructor,
the build-dependent generator helpers, the start-up, the privilege drop and
restore, the request and error logs, the served-request record and the
multiplexed accept/drain/serve/budget/shutdown loop.  An app subclass adds its
protocol through two hooks, ``_admit`` (an accepted, drained connection
becomes a :class:`Connection`) and ``_serve_turn`` (serve one request of a
connection), plus its config parser, default config path and log verb.

Two builds of each server exist, selected by ``transformed``:

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
from typing import Any, Callable, Generator, Optional

from repro.apps.httpd.vulnerable import ServerStateLayout, build_server_state
from repro.core.nvariant import UIDCodec, VariantContext
from repro.kernel.filesystem import O_APPEND, O_RDONLY, O_WRONLY
from repro.kernel.libc import Libc
from repro.kernel.passwd import UserDatabase
from repro.kernel.syscalls import SyscallRequest, SyscallResult
from repro.memory.address_space import AddressSpace

ServerProgram = Generator[SyscallRequest, SyscallResult, "ServerReport"]


def parse_directives(
    text: str, config_class: type, directives: dict[str, tuple[str, Callable[[str], Any]]]
) -> Any:
    """Build a *config_class* from a config file's ``Name value`` lines, validate it, return it.

    *directives* maps each lower-cased directive name to the field it sets
    and the parser of its value; fields no line sets keep the class's
    defaults.  Blank lines and ``#`` comments are skipped, and unknown
    directives are ignored (as Apache does for modules that are not loaded).
    A line without a value, or a value its parser rejects, raises
    ``ValueError`` naming the line, so misconfiguration surfaces at startup
    rather than at privilege-drop time.
    """
    values: dict[str, Any] = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"malformed directive on line {line_number}: {raw_line!r}")
        directive, value = parts[0].lower(), parts[1].strip()
        entry = directives.get(directive)
        if entry is None:
            continue
        attribute, parser = entry
        try:
            values[attribute] = parser(value)
        except ValueError as error:
            raise ValueError(f"bad value for {parts[0]} on line {line_number}: {error}") from error
    config = config_class(**values)
    config.validate()
    return config


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

    def record(self, path: str, status: int, bytes_sent: int, euid_during_serve: int) -> None:
        """Count one served request."""
        self.requests_handled += 1
        self.served.append(ServedRequest(path, status, bytes_sent, euid_during_serve))

    def status_counts(self) -> dict[int, int]:
        """Histogram of response status codes."""
        counts: dict[int, int] = {}
        for request in self.served:
            counts[request.status] = counts.get(request.status, 0) + 1
        return counts


class Connection:
    """One live client connection: its fd, its unserved requests, and the
    paired data channel of a protocol that has one (else ``None``)."""

    __slots__ = ("fd", "pending", "data_fd")

    def __init__(self, fd: int, pending: list[bytes], data_fd: Optional[int] = None):
        self.fd = fd
        self.pending = pending
        self.data_fd = data_fd


class MiniServer:
    """One build of a case-study server; subclasses add the protocol.

    Parameters
    ----------
    libc, uid_codec, address_space:
        The variant's execution context pieces.  For a plain single-process
        run the codec is the identity and the address space unpartitioned.
    transformed:
        Selects the original or UID-transformed build (see module docstring).
    max_requests:
        Stop after this many served requests (``None`` = serve until an
        accept fails).  A connection may carry several requests, so this is
        a request budget, not a connection count.
    multiplex:
        Maximum number of connections served concurrently.  With the default
        of 1 the server is the serial accept-serve-close loop; with ``M > 1``
        it accepts up to M connections and serves one request from each per
        turn, so no single slow client monopolises the server.
    """

    #: The path of the app's configuration file on the simulated host.
    config_path: str
    #: The word an error-log line puts before the path ("serving" ...).
    log_verb: str

    def __init__(
        self,
        libc: Libc,
        uid_codec: UIDCodec,
        address_space: AddressSpace,
        *,
        transformed: bool = False,
        max_requests: Optional[int] = None,
        multiplex: int = 1,
    ):
        if multiplex < 1:
            raise ValueError("multiplex must be at least 1")
        self.libc = libc
        self.codec = uid_codec if transformed else UIDCodec.identity()
        self.address_space = address_space
        self.transformed = transformed
        self.max_requests = max_requests
        self.multiplex = multiplex
        self.config: Any = None
        self.layout: Optional[ServerStateLayout] = None
        self.report = ServerReport()
        #: Every listening socket, in bind order; shut down in that order.
        self.listen_fds: list[int] = []

    @staticmethod
    def parse_config(text: str) -> Any:
        """Parse the app's configuration file (each app supplies its parser)."""
        raise NotImplementedError

    @classmethod
    def factory(
        cls,
        *,
        transformed: bool = True,
        max_requests: Optional[int] = None,
        multiplex: int = 1,
    ) -> Callable[[VariantContext], ServerProgram]:
        """Build a program factory: each variant runs its own server instance."""

        def factory(context: VariantContext) -> ServerProgram:
            return cls(
                context.libc,
                context.uid_codec,
                context.address_space,
                transformed=transformed,
                max_requests=max_requests,
                multiplex=multiplex,
            ).run()

        return factory

    # -- small generator helpers ------------------------------------------------

    def _read_whole_file(self, path: str):
        """Open, read fully and close *path*; returns (ok, data bytes)."""
        libc = self.libc
        opened = yield libc.open(path, O_RDONLY)
        if not opened.ok:
            return False, b""
        fd = opened.value
        chunks = []
        while True:
            chunk = yield libc.read(fd, 4096)
            if not chunk.ok or not chunk.value:
                break
            chunks.append(chunk.value)
        yield libc.close(fd)
        return True, b"".join(chunks)

    def _is_root(self):
        """UID comparison against root, in the build-appropriate form."""
        libc = self.libc
        euid = (yield libc.geteuid()).value
        if self.transformed:
            result = yield libc.cc_eq(euid, self.codec.root)
            return bool(result.value)
        return euid == 0

    def _uids_equal(self, left: int, right: int):
        """UID equality, through cc_eq in the transformed build."""
        if self.transformed:
            result = yield self.libc.cc_eq(left, right)
            return bool(result.value)
        return left == right

    def _expose_uid(self, uid: int):
        """uid_value() exposure of a single UID use (transformed build only)."""
        if self.transformed:
            result = yield self.libc.uid_value(uid)
            return result.value
        return uid

    def _check_condition(self, condition: bool):
        """cond_chk() wrapping of a UID-influenced conditional."""
        if self.transformed:
            result = yield self.libc.cond_chk(bool(condition))
            return bool(result.value)
        return bool(condition)

    # -- startup --------------------------------------------------------------------

    def _startup(self):
        """Read configuration and account data, build state, open the logs, and
        listen on every port of the configuration.

        Raises ``RuntimeError`` on unrecoverable misconfiguration.
        """
        libc = self.libc

        ok, conf_bytes = yield from self._read_whole_file(self.config_path)
        if not ok:
            raise RuntimeError(f"cannot read configuration {self.config_path}")
        self.config = config = self.parse_config(conf_bytes.decode())

        ok, passwd_bytes = yield from self._read_whole_file("/etc/passwd")
        if not ok:
            raise RuntimeError("cannot read /etc/passwd")
        ok, group_bytes = yield from self._read_whole_file("/etc/group")
        if not ok:
            raise RuntimeError("cannot read /etc/group")
        database = UserDatabase.from_text(passwd_bytes.decode(), group_bytes.decode())

        worker_entry = database.getpwnam(config.user)
        group_entry = database.getgrnam(config.group)
        admin_entry = database.getpwnam(config.admin_user)

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

        self.error_fd = (yield libc.open(config.error_log, O_WRONLY | O_APPEND)).value
        self.log_fd = (yield libc.open(config.request_log, O_WRONLY | O_APPEND)).value
        for port in config.listen_ports:
            listen_fd = (yield libc.socket()).value
            bound = yield libc.bind(listen_fd, port)
            if not bound.ok:
                raise RuntimeError(f"cannot bind port {port}: {bound.errno.name}")
            yield libc.listen(listen_fd, 128)
            self.listen_fds.append(listen_fd)

    # -- per request ----------------------------------------------------------------

    def _drop_privileges(self):
        """Per-request privilege drop using the cached (possibly corrupted) ids."""
        libc = self.libc
        worker_uid = self.layout.worker_uid.get()
        worker_gid = self.layout.worker_gid.get()
        am_root = yield from self._is_root()
        if am_root:
            yield libc.setegid(worker_gid)
            yield libc.seteuid(worker_uid)
        return am_root

    def _restore_privileges(self):
        """Escalate back to root for logging and administrative work."""
        libc = self.libc
        yield libc.seteuid(self.codec.constant(0))
        yield libc.setegid(self.codec.constant(0))

    def _log(self, path: str, status: int, size: int):
        """Write the request-log record and, for a failure, an error line (as root)."""
        libc = self.libc
        yield libc.write(self.log_fd, f'client - "{path}" {status} {size}\n')
        if status >= 400:
            if self.transformed:
                # The paper's workaround: drop the UID value from the message
                # so the diversified representations cannot diverge in output.
                message = f"[error] status {status} {self.log_verb} {path}\n"
            else:
                euid = (yield libc.geteuid()).value
                message = f"[error] status {status} {self.log_verb} {path} euid={euid}\n"
            yield libc.write(self.error_fd, message)

    def _admit(self, conn_fd: int, data: bytes):
        """Turn an accepted connection and everything it sent into a :class:`Connection`."""
        raise NotImplementedError

    def _serve_turn(self, connection: Connection):
        """Serve one request of *connection*; returns True once it is finished."""
        raise NotImplementedError

    def _close(self, connection: Connection):
        """Shut down and close a connection, its data channel first."""
        libc = self.libc
        if connection.data_fd is not None:
            yield libc.shutdown(connection.data_fd)
            yield libc.close(connection.data_fd)
        yield libc.shutdown(connection.fd)
        yield libc.close(connection.fd)

    # -- the program ----------------------------------------------------------------------------

    def run(self) -> ServerProgram:
        """The server program: startup, multiplexed request loop, shutdown.

        Up to ``multiplex`` connections are held open at once.  Each accepted
        connection is drained (the client has already sent everything and
        half-closed) and admitted; the loop then serves one request per live
        connection per turn.  ``multiplex=1`` is the serial
        accept-serve-close loop.
        """
        libc = self.libc
        yield from self._startup()
        listen_fd = self.listen_fds[0]
        # A connection may send more than one recv window.
        window = self.config.max_request_size + 4096

        active: list[Connection] = []
        #: A failed accept means no client will connect again, so it
        #: permanently closes admission instead of being re-polled on every
        #: scheduling turn.
        accepting = True

        def budget_left() -> bool:
            return self.max_requests is None or self.report.requests_handled < self.max_requests

        while True:
            while accepting and budget_left() and len(active) < self.multiplex:
                accepted = yield libc.accept(listen_fd)
                if not accepted.ok:
                    accepting = False
                    break
                conn_fd = accepted.value
                chunks = []
                while True:
                    chunk = (yield libc.recv(conn_fd, window)).value
                    if not chunk:
                        break
                    chunks.append(chunk)
                active.append((yield from self._admit(conn_fd, b"".join(chunks))))
            if not active or not budget_left():
                break

            for connection in list(active):
                if not budget_left():
                    break
                if (yield from self._serve_turn(connection)):
                    yield from self._close(connection)
                    active.remove(connection)

        # Budget exhausted with connections still open: close them unserved.
        for connection in active:
            yield from self._close(connection)

        for listen_fd in self.listen_fds:
            yield libc.shutdown(listen_fd)
            yield libc.close(listen_fd)
        yield libc.close(self.error_fd)
        yield libc.close(self.log_fd)
        yield libc.exit(0)
        return self.report
