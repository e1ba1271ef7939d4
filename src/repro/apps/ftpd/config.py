"""Server configuration: a miniature ``ftpd.conf``.

Same shape as :mod:`repro.apps.httpd.config`: the directives that matter are
``User``/``Group`` (the account the server drops to per transfer) and the log
paths whose root-only ownership makes privilege handling observable.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.apps.server import parse_directives
from repro.kernel.host import (
    FTP_DATA_PORT,
    FTP_ERROR_LOG,
    FTP_PORT,
    FTP_ROOT,
    FTP_TRANSFER_LOG,
)


@dataclasses.dataclass(frozen=True)
class FtpConfig:
    """Parsed ftpd configuration."""

    listen_port: int = FTP_PORT
    data_port: int = FTP_DATA_PORT
    user: str = "daemon"
    group: str = "daemon"
    ftp_root: str = FTP_ROOT
    error_log: str = FTP_ERROR_LOG
    transfer_log: str = FTP_TRANSFER_LOG
    admin_user: str = "root"
    max_command_size: int = 8192

    @property
    def listen_ports(self) -> tuple[int, ...]:
        """The ports the server skeleton listens on: commands, then data."""
        return (self.listen_port, self.data_port)

    @property
    def request_log(self) -> str:
        """The per-request log the server skeleton writes: the transfer log."""
        return self.transfer_log

    @property
    def max_request_size(self) -> int:
        """The skeleton's request size limit: the longest command line."""
        return self.max_command_size

    def validate(self) -> None:
        """Sanity-check the configuration values."""
        for label, port in (("Listen", self.listen_port), ("DataPort", self.data_port)):
            if not 0 < port < 65536:
                raise ValueError(f"invalid {label} port {port}")
        if self.listen_port == self.data_port:
            raise ValueError("command and data ports must differ")
        if not self.ftp_root.startswith("/"):
            raise ValueError("FtpRoot must be an absolute path")
        if not self.user:
            raise ValueError("User directive must not be empty")
        if not self.group:
            raise ValueError("Group directive must not be empty")


#: Directive name -> (attribute, parser)
_DIRECTIVES = {
    "listen": ("listen_port", int),
    "dataport": ("data_port", int),
    "user": ("user", str),
    "group": ("group", str),
    "ftproot": ("ftp_root", str),
    "errorlog": ("error_log", str),
    "transferlog": ("transfer_log", str),
    "adminuser": ("admin_user", str),
    "maxcommandsize": ("max_command_size", int),
}


# Every start-up of every variant reads the same few config texts, so parsing
# is memoised on the text: the config is frozen, so no caller can change the
# shared instance, and a malformed text raises on every call because
# ``lru_cache`` does not cache exceptions.
@functools.lru_cache(maxsize=64)
def parse_ftp_config(text: str) -> FtpConfig:
    """Parse ``ftpd.conf`` contents into a :class:`FtpConfig` (see
    :func:`~repro.apps.server.parse_directives` for the rules)."""
    return parse_directives(text, FtpConfig, _DIRECTIVES)
