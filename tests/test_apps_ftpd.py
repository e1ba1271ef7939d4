"""The mini-ftpd: the second serving workload.

A command/data-channel file server carrying the same injected vulnerability
as the mini-httpd (``SITE ANNOTATE`` is the FTP spelling of the
``X-Annotation`` header, writing through the same unchecked 64-byte buffer
into the worker-UID words).  These tests cover the protocol surface, the
privilege-drop discipline per transfer, the vulnerability itself, and the
ftpd's conversation batching in the app-keyed webbench client (the
client's other cases run on both apps in ``test_apps_httpd.py``).
"""

import pytest

from repro.api.builders import build_session
from repro.api.spec import SystemSpec
from repro.apps.clients.webbench import WebBenchWorkload
from repro.apps.ftpd import FtpConfig, MiniFtpd, parse_ftp_config
from repro.attacks.payloads import (
    format_ftp_commands,
    ftp_benign_request,
    ftp_uid_overwrite_payload,
)
from repro.kernel.host import FTP_DATA_PORT, FTP_PORT, build_standard_host, install_ftp_site


class TestFtpConfig:
    """The ftpd's own directives; the parser's shared cases run on both apps
    in ``test_apps_httpd.py``."""

    def test_defaults_parse_back(self):
        config = parse_ftp_config(
            "Listen 21\nDataPort 20\nUser daemon\nGroup daemon\n"
            "FtpRoot /srv/ftp\nAdminUser root\n"
        )
        assert config.listen_port == 21 and config.data_port == 20
        assert config.user == "daemon" and config.admin_user == "root"

    def test_equal_ports_rejected(self):
        with pytest.raises(ValueError):
            FtpConfig(listen_port=21, data_port=21).validate()

    def test_relative_root_rejected(self):
        with pytest.raises(ValueError):
            FtpConfig(ftp_root="srv/ftp").validate()


def _serve(conversations, *, transformed=False, max_requests=None):
    """Run one standalone ftpd (a one-variant session) over scripted
    conversations; returns (kernel, server, the variant's outcome)."""
    kernel = build_standard_host()
    install_ftp_site(kernel.fs)
    for index, payload in enumerate(conversations):
        kernel.client_connect(FTP_PORT, payload, client=f"c{index}")
        kernel.client_connect(FTP_DATA_PORT, b"", client=f"c{index}-data")
    servers = []

    def factory(context):
        server = MiniFtpd(
            context.libc,
            context.uid_codec,
            context.address_space,
            transformed=transformed,
            max_requests=max_requests,
        )
        servers.append(server)
        return server.run()

    spec = SystemSpec(num_variants=1, transformed=transformed)
    result = build_session(spec, kernel, factory, name="ftpd").run()
    return kernel, servers[0], result.variants[0]


def _channel(kernel, client):
    for connection in kernel.network.connections:
        if connection.client == client:
            return connection.response_bytes()
    raise AssertionError(f"no connection for client {client!r}")


class TestMiniFtpd:
    def test_benign_transfer_round_trip(self):
        # Budget 2: exhausting it on the only transfer would close the
        # conversation before the trailing QUIT is acknowledged.
        kernel, server, run_result = _serve(
            [ftp_benign_request()], max_requests=2
        )
        assert run_result.exited_normally
        command = _channel(kernel, "c0")
        assert command.startswith(b"220 ")
        assert b"331 " in command and b"230 " in command
        assert b"150 " in command and b"226 " in command and b"221 " in command
        data = _channel(kernel, "c0-data")
        assert len(data) == 512  # /welcome.txt
        assert server.report.requests_handled == 1

    def test_transfers_drop_privileges_to_the_worker_account(self):
        _, server, _ = _serve([ftp_benign_request()], max_requests=1)
        (served,) = server.report.served
        assert served.status == 226
        assert served.euid_during_serve == 1  # the daemon account

    def test_benign_annotation_is_acknowledged(self):
        kernel, _, _ = _serve(
            [ftp_benign_request(annotation="hello")], max_requests=1
        )
        command = _channel(kernel, "c0")
        assert b"200 " in command and b"226 " in command

    def test_missing_file_is_550(self):
        kernel, server, _ = _serve(
            [format_ftp_commands(["USER u", "PASS p", "RETR /nope.txt", "QUIT"])],
            max_requests=1,
        )
        command = _channel(kernel, "c0")
        assert b"550 " in command
        (served,) = server.report.served
        assert served.status == 550

    def test_unknown_command_is_502(self):
        kernel, _, _ = _serve(
            [format_ftp_commands(["USER u", "PASS p", "MKD /tmp", "QUIT"])]
        )
        assert b"502 " in _channel(kernel, "c0")

    def test_oversized_command_line_is_500(self):
        kernel, _, _ = _serve(
            [format_ftp_commands(["USER u", "PASS p", "RETR /" + "a" * 9000, "QUIT"])]
        )
        assert b"500 " in _channel(kernel, "c0")

    def test_request_budget_limits_transfers(self):
        conversations = [ftp_benign_request() for _ in range(3)]
        _, server, run_result = _serve(conversations, max_requests=2)
        assert run_result.exited_normally
        assert server.report.requests_handled == 2

    def test_annotation_overflow_reaches_root_and_leaks_the_shadow(self):
        """The undefended compromise: the SITE ANNOTATE overflow zeroes the
        worker UID, the next RETR never drops privilege, and the traversal
        path walks out of /srv/ftp into /etc/shadow."""
        kernel, server, run_result = _serve(
            [ftp_uid_overwrite_payload(0)], max_requests=1
        )
        assert run_result.exited_normally
        (served,) = server.report.served
        assert served.status == 226
        assert served.euid_during_serve == 0  # privilege drop defeated
        assert b"root:$6$secrethash$" in _channel(kernel, "c0-data")


class TestFtpWorkload:
    def test_connection_batching(self):
        workload = WebBenchWorkload(app="ftpd", total_requests=6, requests_per_connection=3)
        payloads = workload.connection_payloads()
        assert len(payloads) == 2
        assert payloads[0].count(b"RETR ") == 3
        assert payloads[0].startswith(b"USER ") and payloads[0].endswith(b"QUIT\r\n")
