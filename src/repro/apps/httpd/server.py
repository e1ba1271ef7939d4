"""The mini Apache: the paper's case-study server.

A single-process, event-loop static file server written against the simulated
system-call interface, on the skeleton both case-study apps share
(:class:`repro.apps.server.MiniServer`: start-up, the per-request privilege
drop and restore, the logs and the multiplexed loop, in an original and a
UID-transformed build).  This module is the HTTP side: each accepted
keep-alive connection is split into its pipelined requests, and a turn
parses one request and serves a static file or ``/admin``.  The cached
``uid_t`` values sit behind a fixed-size header buffer
(:mod:`repro.apps.httpd.vulnerable`), so a crafted request corrupts exactly
the data the privilege drop consults -- Chen et al.'s non-control-data attack.
"""

from __future__ import annotations

import posixpath

from repro.apps.httpd.config import parse_config
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
    VULNERABLE_HEADER,
    copy_annotation_header,
    read_banner,
)
from repro.apps.server import Connection, MiniServer
from repro.kernel.errors import Errno
from repro.kernel.filesystem import O_RDONLY
from repro.kernel.host import HTTPD_CONF

#: Request header that authorises /admin requests (orthogonal to UIDs).
ADMIN_TOKEN_HEADER = "X-Admin-Token"

#: Expected admin token value.
ADMIN_TOKEN = "letmein"


class MiniHttpd(MiniServer):
    """One build of the case-study web server (parameters: :class:`MiniServer`)."""

    config_path = HTTPD_CONF
    log_verb = "serving"
    parse_config = staticmethod(parse_config)

    # -- request handling ----------------------------------------------------------------
    def _resolve_path(self, request_path: str) -> str:
        """Map a request path onto the filesystem -- without '..' sanitisation."""
        path = request_path.split("?", 1)[0]
        if path.endswith("/"):
            path += "index.html"
        # Deliberately NOT normalising '..' components: the traversal bug that
        # makes a privilege-retention attack observable.
        return posixpath.join(self.config.document_root, path.lstrip("/"))

    def _serve_admin(self, request: HttpRequest):
        """Handle /admin requests: token check, escalate, read privileged data."""
        libc = self.libc
        if request.header(ADMIN_TOKEN_HEADER) != ADMIN_TOKEN:
            return error_response(403, "admin token required")
        euid = (yield libc.geteuid()).value
        already_admin = yield from self._uids_equal(euid, self.layout.admin_uid.get())
        needs_escalation = yield from self._check_condition(not already_admin)
        if needs_escalation:
            # Administrative work requires full privileges.
            yield libc.seteuid(self.codec.constant(0))
        ok, secret = yield from self._read_whole_file("/root/secrets.txt")
        if not ok:
            return error_response(500, "admin data unavailable")
        body = b"<html><body><h1>admin status</h1><pre>" + secret + b"</pre></body></html>"
        return HttpResponse(status=200, body=body)

    def _serve_static(self, request: HttpRequest):
        """Serve a static file with the worker's (dropped) privileges."""
        libc = self.libc
        full_path = self._resolve_path(request.path)
        opened = yield libc.open(full_path, O_RDONLY)
        if not opened.ok:
            if opened.errno is Errno.EACCES:
                return error_response(403, full_path)
            if opened.errno in (Errno.ENOENT, Errno.ENOTDIR):
                return error_response(404, full_path)
            return error_response(500, opened.errno.name)
        fd = opened.value
        chunks = []
        while True:
            chunk = yield libc.read(fd, 8192)
            if not chunk.ok or not chunk.value:
                break
            chunks.append(chunk.value)
        yield libc.close(fd)
        content = b"".join(chunks)
        response = file_response(content, full_path)
        if request.method == "HEAD":
            response = HttpResponse(
                status=200, body=b"", content_type=response.content_type
            )
        return response

    # -- the protocol hooks ----------------------------------------------------------------

    def _admit(self, conn_fd: int, data: bytes):
        """A keep-alive connection: its pipelined requests, one served per turn."""
        yield from ()  # no system call: the client has sent everything
        return Connection(conn_fd, split_requests(data))

    def _serve_turn(self, connection: Connection):
        """Parse the connection's next request, serve it and send the response."""
        libc = self.libc
        raw = connection.pending.pop(0)
        try:
            request = parse_request(raw)
        except HttpParseError as error:
            path, response = "-", error_response(400, str(error))
        else:
            path = request.path
            if len(raw) > self.config.max_request_size:
                response = error_response(413, "request too large")
            elif request.method not in ("GET", "HEAD"):
                response = error_response(405, request.method)
            else:
                response = None

        if response is None:
            # The vulnerable header copy happens before any privilege
            # operation, exactly where a parsing/logging helper would copy
            # header data in C.
            annotation = request.header(VULNERABLE_HEADER)
            if annotation:
                copy_annotation_header(self.layout, annotation)

            # Touch the banner through its pointer (address-injection
            # detection point under address-space partitioning).
            read_banner(self.address_space, self.layout)

            was_root = yield from self._drop_privileges()
            if path.startswith("/admin"):
                response = yield from self._serve_admin(request)
            else:
                response = yield from self._serve_static(request)
            euid_during = (yield libc.geteuid()).value
            if was_root:
                yield from self._restore_privileges()
        else:
            euid_during = (yield libc.geteuid()).value

        size = len(response.body)
        yield from self._log(path, response.status, size)
        yield libc.send(connection.fd, response.to_bytes())
        self.report.record(path, response.status, size, euid_during)
        return not connection.pending


#: Build a program factory, optionally collecting the MiniHttpd instances
#: (see :meth:`MiniServer.factory`).
make_httpd_factory = MiniHttpd.factory
