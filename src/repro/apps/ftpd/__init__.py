"""The mini-ftpd: the second serving workload.

A command/data-channel file server with the same planted vulnerability
surface as the mini-httpd (see :mod:`repro.apps.ftpd.server`), used to show
the framework's protections are application-independent.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.apps.ftpd.config": ("FtpConfig", "parse_ftp_config"),
        "repro.apps.ftpd.server": ("MiniFtpd",),
    },
)
