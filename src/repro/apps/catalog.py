"""Registry of serving applications the framework can protect.

The attack library, the experiments and the CLI are application-independent:
every app-specific detail -- which port the clients dial, how a benign
request or an overflow payload is rendered on the wire, how a program
factory is built -- lives in one :class:`ServingApp` record here.  Adding a
third workload means registering one record, not touching the drivers.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

from repro.apps.ftpd.server import make_ftpd_factory
from repro.apps.httpd.http import format_request, split_responses
from repro.apps.httpd.server import make_httpd_factory
from repro.attacks.payloads import (
    banner_pointer_payload,
    benign_request,
    ftp_banner_pointer_payload,
    ftp_benign_request,
    ftp_conversation,
    ftp_uid_overwrite_payload,
    uid_overwrite_payload,
)
from repro.kernel.host import FTP_DATA_PORT, FTP_PORT, HTTP_PORT, install_ftp_site
from repro.kernel.kernel import SimulatedKernel


class UnknownAppError(ValueError):
    """Raised when a name does not match any registered serving app."""

    def __init__(self, name: str):
        super().__init__(
            f"unknown app {name!r}; registered apps: {', '.join(app_names())}"
        )
        self.name = name


@dataclasses.dataclass(frozen=True)
class RequestMixEntry:
    """One document in a benign request mix with its relative weight."""

    path: str
    weight: int = 1


#: The httpd's static mix: URL paths relative to the document root, weighted
#: towards the small pages as WebBench's static workload is.
DEFAULT_STATIC_MIX: tuple[RequestMixEntry, ...] = (
    RequestMixEntry("/index.html", 6),
    RequestMixEntry("/news.html", 4),
    RequestMixEntry("/products.html", 3),
    RequestMixEntry("/catalog.html", 2),
    RequestMixEntry("/images/logo.gif", 3),
    RequestMixEntry("/images/banner.jpg", 2),
    RequestMixEntry("/docs/faq.html", 2),
    RequestMixEntry("/docs/manual.html", 1),
    RequestMixEntry("/cgi-data/report.html", 1),
    RequestMixEntry("/downloads/archive.bin", 1),
)

#: The ftpd's RETR mix over the standard FTP site, weighted towards the
#: small files like the static mix is.
DEFAULT_FTP_MIX: tuple[RequestMixEntry, ...] = (
    RequestMixEntry("/welcome.txt", 6),
    RequestMixEntry("/pub/readme.txt", 4),
    RequestMixEntry("/incoming/notes.txt", 3),
    RequestMixEntry("/pub/tools.tar", 2),
    RequestMixEntry("/pub/dataset.bin", 1),
)

#: ``(completed, status counts, body bytes)`` tallied from a kernel's
#: client-side connection view.
Tally = tuple[int, dict[int, int], int]


@dataclasses.dataclass(frozen=True)
class ServingApp:
    """Everything app-specific the app-independent drivers need.

    ``connect`` queues one complete client conversation onto the kernel
    (including any secondary channels -- the ftpd pre-connects its data
    channel here); ``prepare_host`` installs app-specific host state on top
    of the standard image.  The payload builders all return raw wire bytes
    carrying the *same* overflow words across apps, because both servers
    share one vulnerable state layout.

    The benign client side: ``conversation`` renders one connection's bytes
    from the paths it requests (pipelined GETs; or a login, one RETR per
    path and a QUIT), ``tally`` returns ``(completed, status counts, body
    bytes)`` read from every connection on a kernel, and ``default_mix`` is
    the weighted path mix a workload uses unless it names its own.
    """

    name: str
    description: str
    port: int
    make_factory: Callable[..., Callable]
    prepare_host: Callable[[SimulatedKernel], None]
    connect: Callable[..., None]
    benign_payload: Callable[..., bytes]
    uid_overwrite: Callable[..., bytes]
    pointer_overwrite: Callable[..., bytes]
    #: A benign path distinct from the default, used as the "second request"
    #: in drivers that must not re-trigger server-side caching effects.
    alternate_path: str
    conversation: Callable[[Sequence[str]], bytes]
    tally: Callable[[SimulatedKernel], Tally]
    default_mix: tuple[RequestMixEntry, ...]


def _connect_httpd(kernel: SimulatedKernel, payload: bytes, *, client: str = "client") -> None:
    kernel.client_connect(HTTP_PORT, payload, client=client)


def _connect_ftpd(kernel: SimulatedKernel, payload: bytes, *, client: str = "client") -> None:
    kernel.client_connect(FTP_PORT, payload, client=client)
    # The paired data channel, pre-connected like a scripted PORT-mode client;
    # the server accepts command and data connections in the same order.
    kernel.client_connect(FTP_DATA_PORT, b"", client=f"{client}-data")


def _httpd_conversation(paths: Sequence[str]) -> bytes:
    return b"".join(format_request(path) for path in paths)


def _tally_httpd(kernel: SimulatedKernel) -> Tally:
    """Count each Content-Length-framed response on every connection.

    Keep-alive connections carry one response per pipelined request, so
    responses are counted individually rather than per connection.
    """
    completed = 0
    statuses: dict[int, int] = {}
    body_bytes = 0
    for connection in kernel.network.connections:
        raw = connection.response_bytes()
        if not raw:
            continue
        for status, _, body in split_responses(raw):
            completed += 1
            statuses[status] = statuses.get(status, 0) + 1
            body_bytes += len(body)
    return completed, statuses, body_bytes


def _tally_ftpd(kernel: SimulatedKernel) -> Tally:
    """Count reply codes on command channels and bytes on data channels.

    A completed transfer is a ``226`` reply; body bytes are what actually
    arrived on the data channels.
    """
    completed = 0
    statuses: dict[int, int] = {}
    body_bytes = 0
    for connection in kernel.network.connections:
        raw = connection.response_bytes()
        if not raw:
            continue
        if connection.client.endswith("-data"):
            body_bytes += len(raw)
            continue
        for line in raw.split(b"\r\n"):
            if len(line) >= 4 and line[:3].isdigit() and line[3:4] == b" ":
                status = int(line[:3])
                statuses[status] = statuses.get(status, 0) + 1
                if status == 226:
                    completed += 1
    return completed, statuses, body_bytes


HTTPD_APP = ServingApp(
    name="httpd",
    description="mini Apache: the paper's case-study web server",
    port=HTTP_PORT,
    make_factory=make_httpd_factory,
    prepare_host=lambda kernel: None,
    connect=_connect_httpd,
    benign_payload=benign_request,
    uid_overwrite=uid_overwrite_payload,
    pointer_overwrite=banner_pointer_payload,
    alternate_path="/news.html",
    conversation=_httpd_conversation,
    tally=_tally_httpd,
    default_mix=DEFAULT_STATIC_MIX,
)

FTPD_APP = ServingApp(
    name="ftpd",
    description="mini wu-ftpd: command/data-channel file server",
    port=FTP_PORT,
    make_factory=make_ftpd_factory,
    prepare_host=lambda kernel: install_ftp_site(kernel.fs),
    connect=_connect_ftpd,
    benign_payload=ftp_benign_request,
    uid_overwrite=ftp_uid_overwrite_payload,
    pointer_overwrite=ftp_banner_pointer_payload,
    alternate_path="/pub/readme.txt",
    conversation=ftp_conversation,
    tally=_tally_ftpd,
    default_mix=DEFAULT_FTP_MIX,
)

_APPS: dict[str, ServingApp] = {}


def register_app(app: ServingApp) -> ServingApp:
    """Register *app* under its name (replacing any previous registration)."""
    _APPS[app.name] = app
    return app


def get_app(name: str) -> ServingApp:
    """Look up a registered app; raises :class:`UnknownAppError` otherwise."""
    try:
        return _APPS[name]
    except KeyError:
        raise UnknownAppError(name) from None


def app_names() -> list[str]:
    """Registered app names, sorted."""
    return sorted(_APPS)


register_app(HTTPD_APP)
register_app(FTPD_APP)
