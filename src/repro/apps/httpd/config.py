"""Server configuration: a miniature ``httpd.conf``.

The case-study server reads its configuration from a file on the simulated
host, exactly as Apache does.  The directives relevant to the paper are
``User`` and ``Group`` -- the names the server maps to numeric ids via
``/etc/passwd`` before dropping privileges -- and the log paths whose
ownership makes privilege handling observable.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.apps.server import parse_directives
from repro.kernel.host import ACCESS_LOG, DOCROOT, ERROR_LOG, HTTP_PORT


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    """Parsed server configuration."""

    listen_port: int = HTTP_PORT
    user: str = "www-data"
    group: str = "www-data"
    document_root: str = DOCROOT
    error_log: str = ERROR_LOG
    access_log: str = ACCESS_LOG
    admin_user: str = "root"
    max_request_size: int = 8192

    @property
    def listen_ports(self) -> tuple[int, ...]:
        """The ports the server skeleton listens on, in bind order."""
        return (self.listen_port,)

    @property
    def request_log(self) -> str:
        """The per-request log the server skeleton writes: the access log."""
        return self.access_log

    def validate(self) -> None:
        """Sanity-check the configuration values."""
        if not 0 < self.listen_port < 65536:
            raise ValueError(f"invalid Listen port {self.listen_port}")
        if not self.document_root.startswith("/"):
            raise ValueError("DocumentRoot must be an absolute path")
        if not self.user:
            raise ValueError("User directive must not be empty")
        if not self.group:
            raise ValueError("Group directive must not be empty")


#: Directive name -> (attribute, parser)
_DIRECTIVES = {
    "listen": ("listen_port", int),
    "user": ("user", str),
    "group": ("group", str),
    "documentroot": ("document_root", str),
    "errorlog": ("error_log", str),
    "accesslog": ("access_log", str),
    "adminuser": ("admin_user", str),
    "maxrequestsize": ("max_request_size", int),
}


# Every start-up of every variant reads the same few config texts, so parsing
# is memoised on the text: the config is frozen, so no caller can change the
# shared instance, and a malformed text raises on every call because
# ``lru_cache`` does not cache exceptions.
@functools.lru_cache(maxsize=64)
def parse_config(text: str) -> ServerConfig:
    """Parse ``httpd.conf`` contents into a :class:`ServerConfig` (see
    :func:`~repro.apps.server.parse_directives` for the rules)."""
    return parse_directives(text, ServerConfig, _DIRECTIVES)
