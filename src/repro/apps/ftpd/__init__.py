"""The mini-ftpd: the second serving workload.

A command/data-channel file server with the same planted vulnerability
surface as the mini-httpd (see :mod:`repro.apps.ftpd.server`), used to show
the framework's protections are application-independent.
"""

from repro.apps.ftpd.config import FtpConfig, parse_ftp_config
from repro.apps.ftpd.server import (
    MiniFtpd,
    make_ftpd_factory,
)

__all__ = [
    "FtpConfig",
    "MiniFtpd",
    "make_ftpd_factory",
    "parse_ftp_config",
]
