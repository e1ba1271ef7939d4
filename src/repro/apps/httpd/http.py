"""HTTP/1.0-style request parsing and response formatting.

Only what the case study needs: request line, headers, status codes, and
content-length framing for responses.  The parser is intentionally strict
about structure (so tests can exercise 400 handling) but makes no attempt to
sanitise header *values* -- the vulnerable header-copy path in
:mod:`repro.apps.httpd.vulnerable` receives them verbatim, as a C server's
``strcpy`` would.
"""

from __future__ import annotations

import dataclasses

#: Reason phrases for the status codes the server emits.
STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Request Entity Too Large",
    500: "Internal Server Error",
}

#: Methods the static-file server accepts.
SUPPORTED_METHODS = ("GET", "HEAD")


class HttpParseError(ValueError):
    """Raised when a request cannot be parsed; the server answers 400."""


@dataclasses.dataclass
class HttpRequest:
    """A parsed client request."""

    method: str
    path: str
    version: str
    headers: dict[str, str]

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)


@dataclasses.dataclass
class HttpResponse:
    """A response ready to be serialised onto the wire."""

    status: int
    body: bytes = b""
    content_type: str = "text/html"
    extra_headers: tuple[tuple[str, str], ...] = ()

    @property
    def reason(self) -> str:
        """Reason phrase for the status code."""
        return STATUS_REASONS.get(self.status, "Unknown")

    def to_bytes(self) -> bytes:
        """Serialise status line, headers and body."""
        lines = [
            f"HTTP/1.0 {self.status} {self.reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Server: mini-httpd/1.0",
        ]
        for name, value in self.extra_headers:
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode() + self.body


def parse_request(raw: bytes) -> HttpRequest:
    """Parse the raw request bytes received from a client."""
    try:
        text = raw.decode("latin-1")
    except UnicodeDecodeError as error:  # pragma: no cover - latin-1 never fails
        raise HttpParseError(f"undecodable request: {error}") from error
    if "\r\n\r\n" in text:
        head = text.split("\r\n\r\n", 1)[0]
    else:
        head = text
    lines = head.split("\r\n")
    if not lines or not lines[0].strip():
        raise HttpParseError("empty request")
    request_line = lines[0].split()
    if len(request_line) != 3:
        raise HttpParseError(f"malformed request line: {lines[0]!r}")
    method, path, version = request_line
    if not path.startswith("/"):
        raise HttpParseError(f"request path must be absolute: {path!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        if ":" not in line:
            raise HttpParseError(f"malformed header line: {line!r}")
        name, value = line.split(":", 1)
        headers[name.strip().lower()] = value.strip()
    return HttpRequest(method=method, path=path, version=version, headers=headers)


def error_response(status: int, detail: str = "") -> HttpResponse:
    """Build a minimal HTML error response."""
    reason = STATUS_REASONS.get(status, "Error")
    body = f"<html><body><h1>{status} {reason}</h1><p>{detail}</p></body></html>".encode()
    return HttpResponse(status=status, body=body)


def file_response(content: bytes, path: str) -> HttpResponse:
    """Build a 200 response serving *content* for *path*."""
    content_type = "text/html"
    if path.endswith((".gif", ".jpg", ".png")):
        content_type = "application/octet-stream"
    elif path.endswith(".bin"):
        content_type = "application/octet-stream"
    elif path.endswith(".txt"):
        content_type = "text/plain"
    return HttpResponse(status=200, body=content, content_type=content_type)


def format_request(
    path: str,
    *,
    method: str = "GET",
    headers: dict[str, str] | None = None,
) -> bytes:
    """Client-side helper: serialise a request (used by WebBench and attacks)."""
    lines = [f"{method} {path} HTTP/1.0", "Host: testhost", "User-Agent: webbench/5.0"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def split_requests(raw: bytes) -> list[bytes]:
    """Split a keep-alive connection's buffer into its pipelined requests.

    GET/HEAD requests carry no body, so the blank line terminating the header
    block frames each request.  A trailing fragment without the terminator
    (a truncated pipeline, or garbage input) is passed through as-is -- the
    terminator is never synthesised for it -- so the parser, not the framing,
    decides whether it is servable.
    """
    delimiter = b"\r\n\r\n"
    parts = raw.split(delimiter)
    requests = [part + delimiter for part in parts[:-1] if part]
    if parts[-1]:
        requests.append(parts[-1])
    return requests if requests else [raw]


def split_responses(raw: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Split a connection's outbound bytes into its Content-Length-framed responses.

    One walk over *raw*: each header block is parsed from its own slice, and
    each body is one slice, so a long keep-alive stream is never re-copied
    per response.  A response without ``Content-Length`` takes the rest of
    the stream, and one without the blank line is all header, with an empty
    body.  A status or length that is not plain ASCII digits -- a negative
    length included -- raises :class:`HttpParseError`: framing never steps
    backwards.
    """
    responses = []
    end = len(raw)
    offset = 0
    while offset < end:
        head_end = raw.find(b"\r\n\r\n", offset)
        if head_end < 0:
            head_end = body_start = end
        else:
            body_start = head_end + 4
        status, headers, length = _parse_head(raw, offset, head_end)
        offset = end if length is None else body_start + length
        responses.append((status, headers, raw[body_start:offset]))
    return responses


def parse_response(raw: bytes) -> tuple[int, dict[str, str], bytes]:
    """Client-side helper: split a raw response into status, headers, body."""
    head_end = raw.find(b"\r\n\r\n")
    if head_end < 0:
        head_end = len(raw)  # all header: the body slice below is empty
    status, headers, _ = _parse_head(raw, 0, head_end)
    return status, headers, raw[head_end + 4 :]


def _parse_head(raw: bytes, start: int, end: int) -> tuple[int, dict[str, str], int | None]:
    """Parse the status line and headers in ``raw[start:end]``.

    Returns the status, the headers (names lower-cased) and the
    ``Content-Length`` as a number, ``None`` when the header is absent.
    """
    lines = raw[start:end].decode("latin-1").split("\r\n")
    fields = lines[0].split()
    if len(fields) < 2:
        raise HttpParseError(f"malformed status line: {raw[start : start + 60]!r}")
    status = _count("status", fields[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if ":" in line:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    return status, headers, None if length is None else _count("Content-Length", length)


def _count(field: str, text: str) -> int:
    """*text* as a number of ASCII digits only: no sign, ``_``, space or other script."""
    if text.isascii() and text.isdigit():
        return int(text)
    if text[:1] == "-" and text[1:].isascii() and text[1:].isdigit():
        raise HttpParseError(f"negative {field}: {text}")
    raise HttpParseError(f"non-numeric {field}: {text!r}")
