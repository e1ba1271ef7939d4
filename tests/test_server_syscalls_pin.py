"""Every system call both case-study servers make, pinned per variant.

The httpd and the ftpd are driven through fixed conversations: benign ones
that reach every status each server can answer (static files, ``HEAD``,
``/admin`` with and without its token, 403/404/405/400/413 for the httpd;
``SITE``, unknown verbs, an overlong line, 550 and 425 for the ftpd), and
one UID-overwrite conversation per app.  Each benign conversation runs under
the original and the transformed build, as one and as two variants, at
multiplex 1 and 4, once serving every request and once cut short by a
request budget.  Each variant's program is recorded as it runs: every
request it traps with (``describe()``) and the result it gets back.  A case
stores, per variant, the call count and a SHA-256 over that record, and the
whole set must equal ``server_syscalls_pin.json``.  So a change to either
server's code shows up here unless both builds still issue the same calls
with the same arguments in the same order.  To rewrite the file after a
deliberate change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_server_syscalls_pin.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.api.builders import build_session
from repro.api.seeding import sha256
from repro.api.spec import (
    ADDRESS_PARTITIONING_SPEC,
    ADDRESS_UID_SPEC,
    SINGLE_PROCESS_SPEC,
    UID_DIVERSITY_SPEC,
    SystemSpec,
)
from repro.apps.catalog import get_app
from repro.apps.httpd.http import format_request
from repro.apps.httpd.server import ADMIN_TOKEN, ADMIN_TOKEN_HEADER
from repro.attacks.payloads import format_ftp_commands
from repro.kernel.host import FTP_PORT, build_standard_host

PIN = Path(__file__).resolve().parent / "server_syscalls_pin.json"

TRANSFORMED_SINGLE_SPEC = SystemSpec(name="single-transformed", num_variants=1, transformed=True)

BENIGN_SPECS = (
    SINGLE_PROCESS_SPEC,
    ADDRESS_PARTITIONING_SPEC,
    TRANSFORMED_SINGLE_SPEC,
    UID_DIVERSITY_SPEC,
    ADDRESS_UID_SPEC,
)
ATTACK_SPECS = (SINGLE_PROCESS_SPEC, UID_DIVERSITY_SPEC)

_ADMIN = {ADMIN_TOKEN_HEADER: ADMIN_TOKEN}

#: One conversation per connection: the served requests, in order.
HTTPD_CONVERSATIONS = (
    format_request("/index.html")
    + format_request("/news.html", method="HEAD")
    + format_request("/missing.html")
    + format_request("/admin/status", headers=_ADMIN)
    + format_request("/admin/status"),
    format_request("/index.html", method="POST"),
    b"BLAH\r\n\r\n",
    format_request("/index.html", headers={"X-Padding": "p" * 9000}),
    format_request("/images/logo.gif", headers={"X-Annotation": "note"})
    + format_request("/../../../etc/shadow"),
    format_request("/docs/"),
    format_request("/products.html") + format_request("/catalog.html"),
)

FTPD_CONVERSATIONS = (
    format_ftp_commands(
        ["USER anonymous", "PASS guest", "SITE ANNOTATE hello", "RETR /welcome.txt",
         "RETR /missing.txt", "QUIT"]
    ),
    format_ftp_commands(
        ["USER anonymous", "PASS guest", "SITE CHMOD 600 x", "NOOP", "retr /pub/readme.txt",
         "RETR " + "x" * 9000, "RETR /pub/tools.tar", "QUIT"]
    ),
    format_ftp_commands(["USER anonymous", "PASS guest", "RETR /../../../etc/shadow"]),
    format_ftp_commands(["USER anonymous", "QUIT", "RETR /welcome.txt"]),
    format_ftp_commands(["USER anonymous", "PASS guest", "RETR /incoming/notes.txt", "QUIT"]),
    format_ftp_commands(["USER anonymous", "PASS guest", "RETR /pub/dataset.bin", "QUIT"]),
)

#: Served requests in each app's conversations: ``RETR`` transfers for the
#: ftpd, counting the extra conversation without a data channel.
TOTALS = {"httpd": 13, "ftpd": 8}


def _recorded(program, log: list[str]):
    """Pass *program*'s traps through, appending each request and its result to *log*."""
    result = None
    try:
        while True:
            request = program.send(result)
            log.append(request.describe())
            result = yield request
            log.append(f"-> {result.value!r} {result.errno.name}")
    except StopIteration as stop:
        return stop.value


def _run(app_name: str, spec: SystemSpec, conversations, *, multiplex: int, budget):
    app = get_app(app_name)
    kernel = build_standard_host()
    app.prepare_host(kernel)
    for payload in conversations:
        app.connect(kernel, payload)
    if app_name == "ftpd":
        # One more conversation, with no data channel: its RETR gets 425.
        kernel.client_connect(FTP_PORT, app.benign_payload())
    factory = app.make_factory(
        transformed=spec.transformed, max_requests=budget, multiplex=multiplex
    )
    logs: list[list[str]] = []

    def recording_factory(context):
        log: list[str] = []
        logs.append(log)
        return _recorded(factory(context), log)

    build_session(spec, kernel, recording_factory).run()
    return {
        f"variant {number}": {
            "calls": sum(1 for line in log if not line.startswith("-> ")),
            "sha256": sha256("\n".join(log).encode("latin-1", "backslashreplace")).hexdigest(),
        }
        for number, log in enumerate(logs)
    }


def _observe() -> dict[str, dict]:
    cases = {}
    for app_name, conversations in (
        ("httpd", HTTPD_CONVERSATIONS),
        ("ftpd", FTPD_CONVERSATIONS),
    ):
        for spec in BENIGN_SPECS:
            for multiplex in (1, 4):
                for budget in (None, TOTALS[app_name] - 3):
                    name = f"{app_name}/benign@{spec.name}/m{multiplex}/budget={budget}"
                    cases[name] = _run(
                        app_name, spec, conversations, multiplex=multiplex, budget=budget
                    )
        app = get_app(app_name)
        attack = (app.benign_payload(), app.uid_overwrite(0), app.benign_payload())
        for spec in ATTACK_SPECS:
            cases[f"{app_name}/uid-overwrite@{spec.name}"] = _run(
                app_name, spec, attack, multiplex=1, budget=None
            )
    return cases


def test_every_server_run_issues_its_pinned_syscalls():
    observed = _observe()
    assert len(observed) == 2 * (len(BENIGN_SPECS) * 2 * 2 + len(ATTACK_SPECS))
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        PIN.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    pinned = json.loads(PIN.read_text())
    assert sorted(observed) == sorted(pinned)
    changed = [name for name in pinned if observed[name] != pinned[name]]
    assert changed == [], {name: (pinned[name], observed[name]) for name in changed[:3]}
