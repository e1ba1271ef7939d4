"""Standard host image used by examples, tests and benchmarks.

The paper's case study runs Apache on a Fedora Core 5 host.  This module
builds the simulated equivalent: a filesystem populated with the account
databases, a web document root with a WebBench-like mix of static pages, the
server configuration file, log and runtime directories, and a few root-only
files that exist purely so a successful privilege-escalation attack has
something worth reading.

Every campaign cell builds its own host, so :func:`build_standard_host` does
not rebuild that image each time.  It clones one private image, built on
first use: the image itself is never handed out, so nothing a host does to
its filesystem can reach the image or the next host.  The clone shares the
image's file contents copy-on-write, and the per-variant account databases
and document bytes are memoised, so hosts share every byte they have not
written.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

from repro.kernel.filesystem import FileSystem
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.passwd import (
    default_group_entries,
    default_passwd_entries,
    diversify_group,
    diversify_passwd,
    format_group,
    format_passwd,
    parse_group,
    parse_passwd,
)

#: Default port the mini-httpd listens on.
HTTP_PORT = 80

#: Default document root.
DOCROOT = "/var/www/html"

#: Default server configuration path.
HTTPD_CONF = "/etc/httpd.conf"

#: Default error-log path.
ERROR_LOG = "/var/log/httpd/error_log"

#: Default access-log path.
ACCESS_LOG = "/var/log/httpd/access_log"

#: A root-only file that a successful UID attack would be able to read.
SHADOW_FILE = "/etc/shadow"

#: Default FTP command port (the mini-ftpd's control channel).
FTP_PORT = 21

#: Default FTP data port (one pre-connected data channel per client).
FTP_DATA_PORT = 20

#: Default ftpd configuration path.
FTPD_CONF = "/etc/ftpd.conf"

#: Default FTP site root the mini-ftpd serves from.
FTP_ROOT = "/srv/ftp"

#: Default ftpd error-log path.
FTP_ERROR_LOG = "/var/log/ftpd/error_log"

#: Default ftpd transfer-log path.
FTP_TRANSFER_LOG = "/var/log/ftpd/transfer_log"


@dataclasses.dataclass(frozen=True)
class DocumentSpec:
    """One static document in the WebBench-like document tree."""

    path: str
    size: int

    def content(self) -> bytes:
        """Deterministic filler content of the requested size.

        Memoised, so every host that installs this document shares its bytes.
        """
        return _filler(self.path, self.size)


@functools.lru_cache(maxsize=256)
def _filler(path: str, size: int) -> bytes:
    pattern = f"<!-- {path} -->".encode()
    repeats = size // len(pattern) + 1
    return (pattern * repeats)[:size]


#: The standard static document mix.  WebBench 5.0's static workload requests
#: a spread of small-to-large pages; these sizes reproduce that spread so the
#: throughput numbers (KB/s) are dominated by a realistic byte mix.
DEFAULT_DOCUMENTS: tuple[DocumentSpec, ...] = (
    DocumentSpec(f"{DOCROOT}/index.html", 1024),
    DocumentSpec(f"{DOCROOT}/news.html", 2048),
    DocumentSpec(f"{DOCROOT}/products.html", 4096),
    DocumentSpec(f"{DOCROOT}/catalog.html", 8192),
    DocumentSpec(f"{DOCROOT}/images/logo.gif", 3072),
    DocumentSpec(f"{DOCROOT}/images/banner.jpg", 16384),
    DocumentSpec(f"{DOCROOT}/docs/manual.html", 32768),
    DocumentSpec(f"{DOCROOT}/docs/faq.html", 6144),
    DocumentSpec(f"{DOCROOT}/cgi-data/report.html", 12288),
    DocumentSpec(f"{DOCROOT}/downloads/archive.bin", 65536),
)

#: Default httpd configuration contents.
DEFAULT_HTTPD_CONF = f"""\
# Simulated httpd configuration
Listen {HTTP_PORT}
User www-data
Group www-data
DocumentRoot {DOCROOT}
ErrorLog {ERROR_LOG}
AccessLog {ACCESS_LOG}
AdminUser root
"""


def build_filesystem() -> FileSystem:
    """Build the standard host filesystem image afresh."""
    fs = FileSystem()
    for directory in (
        "/etc",
        "/root",
        "/home",
        "/home/alice",
        "/home/bob",
        "/tmp",
        "/var",
        "/var/www",
        DOCROOT,
        f"{DOCROOT}/images",
        f"{DOCROOT}/docs",
        f"{DOCROOT}/cgi-data",
        f"{DOCROOT}/downloads",
        "/var/log",
        "/var/log/httpd",
        "/var/run",
    ):
        fs.mkdir(directory, parents=True)
    # World-writable scratch space, as on a real host.
    fs.chmod("/tmp", 0o777)

    fs.create_file("/etc/passwd", format_passwd(default_passwd_entries()), mode=0o644)
    fs.create_file("/etc/group", format_group(default_group_entries()), mode=0o644)
    fs.create_file(
        SHADOW_FILE,
        "root:$6$secrethash$:19000:0:99999:7:::\n",
        mode=0o600,
    )
    fs.create_file(HTTPD_CONF, DEFAULT_HTTPD_CONF, mode=0o644)
    fs.create_file(ERROR_LOG, b"", mode=0o640)
    fs.create_file(ACCESS_LOG, b"", mode=0o640)
    fs.create_file("/root/secrets.txt", "top secret\n", mode=0o600)

    for document in DEFAULT_DOCUMENTS:
        fs.create_file(document.path, document.content(), mode=0o644)

    # Home directories owned by their users, world-unreadable private files.
    fs.chown("/home/alice", 1000, 1000)
    fs.chown("/home/bob", 1001, 1001)
    fs.create_file("/home/alice/diary.txt", "alice's private notes\n", mode=0o600, uid=1000, gid=1000)
    fs.create_file("/home/bob/notes.txt", "bob's private notes\n", mode=0o600, uid=1001, gid=1001)
    return fs


def install_diversified_user_db(fs: FileSystem, masks: Sequence[int]) -> list[tuple[str, str]]:
    """Create the per-variant unshared copies of the account databases.

    For each variant *i*, writes ``/etc/passwd-i`` and ``/etc/group-i``
    whose UID/GID columns are XORed with ``masks[i]``, the UID variation's
    re-expression ``R_i`` (Section 3.4 of the paper; mask 0 is the
    identity).  Returns the list of ``(original, variant)`` path pairs
    created, which callers register with the unshared-file layer.
    """
    passwd = fs.read_file("/etc/passwd")
    group = fs.read_file("/etc/group")
    created: list[tuple[str, str]] = []
    for index, mask in enumerate(masks):
        variant_passwd = f"/etc/passwd-{index}"
        variant_group = f"/etc/group-{index}"
        passwd_text, group_text = _diversified_user_db(passwd, group, mask)
        fs.create_file(variant_passwd, passwd_text, mode=0o644)
        fs.create_file(variant_group, group_text, mode=0o644)
        created.append(("/etc/passwd", variant_passwd))
        created.append(("/etc/group", variant_group))
    return created


# Every cell of a spec diversifies the same databases with the same masks, so
# the rendered text is memoised on the mask.  A rotated key brings new masks,
# so it misses and takes effect.
@functools.lru_cache(maxsize=256)
def _diversified_user_db(passwd: bytes, group: bytes, mask: int) -> tuple[bytes, bytes]:
    """``passwd`` and ``group`` with every id XORed with *mask*."""
    reexpress = mask.__xor__
    return (
        format_passwd(diversify_passwd(parse_passwd(passwd.decode()), reexpress)).encode(),
        format_group(diversify_group(parse_group(group.decode()), reexpress)).encode(),
    )


#: The standard FTP site content, sized like a small public mirror.
DEFAULT_FTP_DOCUMENTS: tuple[DocumentSpec, ...] = (
    DocumentSpec(f"{FTP_ROOT}/welcome.txt", 512),
    DocumentSpec(f"{FTP_ROOT}/pub/readme.txt", 1024),
    DocumentSpec(f"{FTP_ROOT}/pub/tools.tar", 8192),
    DocumentSpec(f"{FTP_ROOT}/pub/dataset.bin", 16384),
    DocumentSpec(f"{FTP_ROOT}/incoming/notes.txt", 2048),
)

#: Default ftpd configuration contents.  The server runs as the existing
#: ``daemon`` account so installing the FTP site never perturbs the account
#: databases the httpd experiments depend on byte-for-byte.
DEFAULT_FTPD_CONF = f"""\
# Simulated ftpd configuration
Listen {FTP_PORT}
DataPort {FTP_DATA_PORT}
User daemon
Group daemon
FtpRoot {FTP_ROOT}
ErrorLog {FTP_ERROR_LOG}
TransferLog {FTP_TRANSFER_LOG}
AdminUser root
"""


def install_ftp_site(fs: FileSystem) -> None:
    """Add the FTP site (root, configuration, logs, documents) to *fs*.

    Deliberately additive: the standard host image is left byte-identical so
    the httpd workloads keep producing the historical results, and hosts that
    never run the ftpd never pay for its files.
    """
    for directory in (
        "/srv",
        FTP_ROOT,
        f"{FTP_ROOT}/pub",
        f"{FTP_ROOT}/incoming",
        "/var/log/ftpd",
    ):
        fs.mkdir(directory, parents=True)
    fs.create_file(FTPD_CONF, DEFAULT_FTPD_CONF, mode=0o644)
    fs.create_file(FTP_ERROR_LOG, b"", mode=0o640)
    fs.create_file(FTP_TRANSFER_LOG, b"", mode=0o640)
    for document in DEFAULT_FTP_DOCUMENTS:
        fs.create_file(document.path, document.content(), mode=0o644)


def build_standard_host() -> SimulatedKernel:
    """Build a kernel whose filesystem is a clone of the standard host image."""
    return SimulatedKernel(filesystem=_standard_image().clone())


#: The standard host image; only ever cloned, never handed out or mutated.
_standard_image = functools.cache(build_filesystem)
