"""The mini wu-ftpd: the second serving workload.

A single-process command/data-channel file server on the same server
skeleton as the mini-httpd (:class:`repro.apps.server.MiniServer`),
demonstrating that the framework's protections are properties of the
*system*, not of one application.  Its privilege lifecycle is the same
pattern the paper targets: the server starts as root, maps its configured
``User``/``Group`` to numeric ids via ``/etc/passwd``, caches those ids in
memory, and *per transfer* drops its effective uid to the worker id, reads
the file, and escalates back to root for logging.  This module is the FTP
side: pairing each command connection with its data channel, and the verbs.

Crucially the cached ids live in the **identical** vulnerable memory layout
as the httpd's (the skeleton builds it with
:func:`repro.apps.httpd.vulnerable.build_server_state`): a fixed 64-byte
annotation buffer copied into without bounds checks (``SITE ANNOTATE``, the
FTP analogue of the ``X-Annotation`` header) sits directly in front of the
worker uid/gid, admin uid and banner pointer.  The same overflow payload bytes therefore corrupt the same fields
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

from repro.apps.ftpd.config import parse_ftp_config
from repro.apps.httpd.vulnerable import copy_annotation_header, read_banner
from repro.apps.server import Connection, MiniServer
from repro.kernel.filesystem import O_RDONLY
from repro.kernel.host import FTPD_CONF

#: Greeting sent on every accepted command connection.
GREETING = b"220 mini-ftpd ready\r\n"


def split_commands(raw: bytes) -> list[bytes]:
    """Split a command connection's buffer into its CRLF-framed lines."""
    return [line for line in raw.split(b"\r\n") if line]


class MiniFtpd(MiniServer):
    """One build of the second case-study server (parameters: :class:`MiniServer`).

    ``max_requests`` budgets the number of ``RETR`` transfers served, and a
    turn serves one transfer of a conversation.
    """

    config_path = FTPD_CONF
    log_verb = "retrieving"
    parse_config = staticmethod(parse_ftp_config)

    # -- the protocol ----------------------------------------------------------------------

    def _admit(self, conn_fd: int, data: bytes):
        """Pair a command connection with its data channel, and greet it."""
        libc = self.libc
        # The data channel was pre-connected by the client and is accepted
        # FIFO from the data port's listener: n-th command connection, n-th
        # data channel.
        data_accepted = yield libc.accept(self.listen_fds[1])
        data_fd = data_accepted.value if data_accepted.ok else None
        yield libc.send(conn_fd, GREETING)
        return Connection(conn_fd, split_commands(data), data_fd)

    def _resolve_path(self, request_path: str) -> str:
        """Map a RETR argument onto the filesystem -- without '..' sanitisation."""
        path = request_path.strip()
        # Deliberately NOT normalising '..' components: the traversal bug that
        # makes a privilege-retention attack observable (same as the httpd).
        return posixpath.join(self.config.ftp_root, path.lstrip("/"))

    def _serve_retr(self, connection: Connection, path: str):
        """One transfer: banner deref, privilege drop, read, data-channel send."""
        libc = self.libc

        # Touch the banner through its pointer (address-injection detection
        # point under address-space partitioning), then drop privileges using
        # the cached -- possibly overflow-corrupted -- worker uid.
        read_banner(self.address_space, self.layout)
        was_root = yield from self._drop_privileges()

        full_path = self._resolve_path(path)
        content = b""
        opened = yield libc.open(full_path, O_RDONLY)
        if not opened.ok:
            status = 550
            yield libc.send(connection.fd, f"550 {path}: not available.\r\n")
        else:
            fd = opened.value
            chunks = []
            while True:
                chunk = yield libc.read(fd, 8192)
                if not chunk.ok or not chunk.value:
                    break
                chunks.append(chunk.value)
            yield libc.close(fd)
            content = b"".join(chunks)
            if connection.data_fd is None:
                status = 425
                yield libc.send(connection.fd, b"425 Can't open data connection.\r\n")
                content = b""
            else:
                status = 226
                yield libc.send(connection.fd, b"150 Opening data connection.\r\n")
                yield libc.send(connection.data_fd, content)
                yield libc.send(connection.fd, b"226 Transfer complete.\r\n")

        euid_during = (yield libc.geteuid()).value
        if was_root:
            yield from self._restore_privileges()
        yield from self._log(path, status, len(content))
        self.report.record(path, status, len(content), euid_during)

    def _serve_turn(self, connection: Connection):
        """Process commands until one transfer is served; True when finished."""
        libc = self.libc
        while connection.pending:
            line = connection.pending.pop(0)
            if len(line) > self.config.max_command_size:
                yield libc.send(connection.fd, b"500 Command line too long.\r\n")
                continue
            text = line.decode("latin-1")
            verb, _, argument = text.partition(" ")
            verb = verb.upper()
            if verb == "USER":
                yield libc.send(connection.fd, b"331 Password required.\r\n")
            elif verb == "PASS":
                yield libc.send(connection.fd, b"230 Login successful.\r\n")
            elif verb == "SITE":
                subverb, _, value = argument.partition(" ")
                if subverb.upper() == "ANNOTATE":
                    # The vulnerable copy: the FTP analogue of the httpd's
                    # X-Annotation header lands in the same fixed buffer.
                    copy_annotation_header(self.layout, value)
                    yield libc.send(connection.fd, b"200 Annotation noted.\r\n")
                else:
                    yield libc.send(connection.fd, b"502 SITE command not implemented.\r\n")
            elif verb == "RETR":
                yield from self._serve_retr(connection, argument)
                # One transfer per turn; the conversation resumes next turn.
                return not connection.pending
            elif verb == "QUIT":
                yield libc.send(connection.fd, b"221 Goodbye.\r\n")
                return True
            else:
                yield libc.send(connection.fd, b"502 Command not implemented.\r\n")
        return True


#: Build a program factory, optionally collecting the MiniFtpd instances
#: (see :meth:`MiniServer.factory`).
make_ftpd_factory = MiniFtpd.factory
