"""The mini Apache case-study application."""

from repro.apps.httpd.config import ServerConfig, parse_config
from repro.apps.httpd.http import (
    HttpParseError,
    HttpRequest,
    HttpResponse,
    STATUS_REASONS,
    error_response,
    file_response,
    format_request,
    parse_request,
    parse_response,
)
from repro.apps.httpd.server import (
    ADMIN_TOKEN,
    ADMIN_TOKEN_HEADER,
    MiniHttpd,
    ServedRequest,
    ServerReport,
    make_httpd_factory,
)
from repro.apps.httpd.vulnerable import (
    ANNOTATION_BUFFER_SIZE,
    BANNER_TEXT,
    ServerStateLayout,
    VULNERABLE_HEADER,
    build_server_state,
    copy_annotation_header,
    read_banner,
)

__all__ = [
    "ADMIN_TOKEN",
    "ADMIN_TOKEN_HEADER",
    "ANNOTATION_BUFFER_SIZE",
    "BANNER_TEXT",
    "HttpParseError",
    "HttpRequest",
    "HttpResponse",
    "MiniHttpd",
    "STATUS_REASONS",
    "ServedRequest",
    "ServerConfig",
    "ServerReport",
    "ServerStateLayout",
    "VULNERABLE_HEADER",
    "build_server_state",
    "copy_annotation_header",
    "error_response",
    "file_response",
    "format_request",
    "make_httpd_factory",
    "parse_config",
    "parse_request",
    "parse_response",
    "read_banner",
]
