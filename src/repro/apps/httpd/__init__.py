"""The mini Apache case-study application.

The package re-exports lazily (``repro._lazy_exports``): the server skeleton
in :mod:`repro.apps.server` imports :mod:`repro.apps.httpd.vulnerable`, and
``repro.apps.httpd.server`` builds on that skeleton, so importing this package
must not import its server module.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.apps.httpd.config": ("ServerConfig", "parse_config"),
        "repro.apps.httpd.http": (
            "HttpParseError",
            "HttpRequest",
            "HttpResponse",
            "STATUS_REASONS",
            "error_response",
            "file_response",
            "format_request",
            "parse_request",
            "parse_response",
        ),
        "repro.apps.httpd.server": (
            "ADMIN_TOKEN",
            "ADMIN_TOKEN_HEADER",
            "MiniHttpd",
            "make_httpd_factory",
        ),
        "repro.apps.server": ("ServedRequest", "ServerReport"),
        "repro.apps.httpd.vulnerable": (
            "ANNOTATION_BUFFER_SIZE",
            "BANNER_TEXT",
            "ServerStateLayout",
            "VULNERABLE_HEADER",
            "build_server_state",
            "copy_annotation_header",
            "read_banner",
        ),
    },
)
