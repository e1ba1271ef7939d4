"""Tests for the mini-httpd: config, HTTP handling, the server lifecycle and WebBench."""

import dataclasses
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api.builders import build_session
from repro.api.spec import SystemSpec
from repro.apps.clients.webbench import (
    DEFAULT_STATIC_MIX,
    WebBenchWorkload,
    drive_nvariant,
    drive_standalone,
)
from repro.apps.ftpd.config import FtpConfig, parse_ftp_config
from repro.apps.httpd.config import ServerConfig, parse_config
from repro.apps.httpd.http import (
    HttpParseError,
    _parse_head,
    error_response,
    file_response,
    format_request,
    parse_request,
    split_responses,
)
from repro.apps.httpd.server import MiniHttpd
from repro.apps.httpd.vulnerable import (
    ANNOTATION_BUFFER_SIZE,
    BANNER_TEXT,
    build_server_state,
    copy_annotation_header,
    read_banner,
)
from repro.kernel.host import DEFAULT_HTTPD_CONF, HTTP_PORT, build_standard_host
from repro.memory.address_space import AddressSpace
from repro.memory.partition import high_bit_scheme


def parse_response(raw):
    """A client's view of one raw response: status, headers, and the rest as body."""
    head_end = raw.find(b"\r\n\r\n")
    if head_end < 0:
        head_end = len(raw)  # all header: the body slice below is empty
    status, headers, _ = _parse_head(raw, 0, head_end)
    return status, headers, raw[head_end + 4 :]


#: Each app's directive parser and config class: both parse through
#: ``repro.apps.server.parse_directives``, so one fault gives one text.
CONFIGS = {"httpd": (parse_config, ServerConfig), "ftpd": (parse_ftp_config, FtpConfig)}


class TestConfig:
    def test_parse_default_config(self):
        config = parse_config(DEFAULT_HTTPD_CONF)
        assert config.listen_port == 80
        assert config.user == "www-data"
        assert config.document_root == "/var/www/html"

    @pytest.mark.parametrize("app", sorted(CONFIGS))
    def test_unknown_directives_ignored(self, app):
        parse, _ = CONFIGS[app]
        config = parse("Listen 8080\nFancyModule on\nPassivePorts 5000-5100\n")
        assert config.listen_port == 8080

    @pytest.mark.parametrize("app", sorted(CONFIGS))
    def test_comments_and_blanks_ignored(self, app):
        parse, _ = CONFIGS[app]
        config = parse("# comment\n\n   \n  # indented comment\nUser alice\n")
        assert config.user == "alice"

    @pytest.mark.parametrize("app", sorted(CONFIGS))
    def test_malformed_directive_rejected(self, app):
        parse, _ = CONFIGS[app]
        with pytest.raises(ValueError) as raised:
            parse("# the port\nListen\n")
        assert str(raised.value) == "malformed directive on line 2: 'Listen'"

    @pytest.mark.parametrize("app", sorted(CONFIGS))
    @pytest.mark.parametrize("value", ["notaport", "twenty-one"])
    def test_bad_port_value_rejected(self, app, value):
        parse, _ = CONFIGS[app]
        with pytest.raises(ValueError) as raised:
            parse(f"Listen {value}\n")
        assert str(raised.value) == (
            f"bad value for Listen on line 1: invalid literal for int() with base 10: {value!r}"
        )

    @pytest.mark.parametrize("app", sorted(CONFIGS))
    @pytest.mark.parametrize("field, directive", [("user", "User"), ("group", "Group")])
    def test_empty_user_or_group_rejected(self, app, field, directive):
        _, config_class = CONFIGS[app]
        with pytest.raises(ValueError) as raised:
            config_class(**{field: ""}).validate()
        assert str(raised.value) == f"{directive} directive must not be empty"

    def test_validation_rejects_relative_docroot(self):
        config = ServerConfig(document_root="www")
        with pytest.raises(ValueError):
            config.validate()


class TestHttpMessages:
    def test_parse_simple_get(self):
        request = parse_request(b"GET /index.html HTTP/1.0\r\nHost: h\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/index.html"
        assert request.header("host") == "h"

    def test_header_lookup_is_case_insensitive(self):
        request = parse_request(b"GET / HTTP/1.0\r\nX-Annotation: abc\r\n\r\n")
        assert request.header("x-annotation") == "abc"
        assert request.header("X-ANNOTATION") == "abc"

    def test_malformed_request_line_raises(self):
        with pytest.raises(HttpParseError):
            parse_request(b"GARBAGE\r\n\r\n")

    def test_relative_path_rejected(self):
        with pytest.raises(HttpParseError):
            parse_request(b"GET index.html HTTP/1.0\r\n\r\n")

    def test_response_serialisation_includes_content_length(self):
        response = file_response(b"hello", "/index.html")
        raw = response.to_bytes()
        assert b"Content-Length: 5" in raw
        assert raw.endswith(b"hello")

    def test_error_response_has_reason(self):
        assert b"404 Not Found" in error_response(404).to_bytes()

    def test_format_and_parse_roundtrip(self):
        raw = format_request("/a.html", headers={"X-Test": "1"})
        request = parse_request(raw)
        assert request.path == "/a.html" and request.header("x-test") == "1"

    def test_parse_response_splits_status_and_body(self):
        status, headers, body = parse_response(error_response(403, "nope").to_bytes())
        assert status == 403
        assert headers["content-type"] == "text/html"
        assert b"nope" in body


def _oracle_number(field, text):
    """A status or length: ASCII digits only, as the framing demands."""
    if re.fullmatch(r"[0-9]+", text):
        return int(text)
    if re.fullmatch(r"-[0-9]+", text):
        raise HttpParseError(f"negative {field}: {text}")
    raise HttpParseError(f"non-numeric {field}: {text!r}")


def _oracle_parse_response(raw):
    """``parse_response`` as it was before the offset walk: the test's oracle."""
    if b"\r\n\r\n" in raw:
        head, body = raw.split(b"\r\n\r\n", 1)
    else:
        head, body = raw, b""
    lines = head.decode("latin-1").split("\r\n")
    if not lines or len(lines[0].split()) < 2:
        raise HttpParseError(f"malformed status line: {raw[:60]!r}")
    status = _oracle_number("status", lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
    if "content-length" in headers:
        _oracle_number("Content-Length", headers["content-length"])
    return status, headers, body


def _oracle_split_responses(raw):
    """``split_responses`` as it was: re-splits the rest for every response."""
    responses = []
    remaining = raw
    while remaining:
        status, headers, rest = _oracle_parse_response(remaining)
        length = int(headers.get("content-length", len(rest)))
        responses.append((status, headers, rest[:length]))
        remaining = rest[length:]
    return responses


def _outcome(function, raw):
    try:
        return ("ok", function(raw))
    except HttpParseError as error:
        return ("error", str(error))


#: Pieces bodies and trailing garbage are made of: enough CR/LF that a
#: body often holds a header terminator or a status line.  No ``-``, so no
#: length is ever negative.
_PIECES = st.sampled_from([b"a", b"\r", b"\n", b"\r\n\r\n", b":", b" ", b"7", b"HTTP/1.0 200 OK"])
_CHUNK = st.lists(_PIECES, max_size=12).map(b"".join)


@st.composite
def _framed_response(draw):
    """One response; its length may be exact, absent, zero, short or not a number."""
    status = draw(st.sampled_from([b"200", b"404", b"503"] * 8 + [b"OK", b""]))
    body = draw(_CHUNK)
    lengths = {
        "exact": st.just(str(len(body))),
        "absent": st.none(),
        "zero": st.just("0"),
        "oversized": st.integers(len(body) + 1, len(body) + 50).map(str),
        "padded": st.just(f"  {len(body)} "),
        "word": st.sampled_from(["abc", "1x", "0x10", "+3", "1_0"]),
        "empty": st.just(""),
    }
    value = draw(lengths[draw(st.sampled_from(["exact"] * 10 + sorted(lengths)))])
    lines = [b"HTTP/1.0 " + status + b" Reason", b"Server: test"]
    if value is not None:
        name = draw(st.sampled_from([b"Content-Length", b"content-length", b"CONTENT-LENGTH "]))
        lines.append(name + b": " + value.encode())
    head = b"\r\n".join(lines)
    if draw(st.integers(0, 9)) == 0:
        return head  # no blank line: the stream ends inside a header block
    return head + b"\r\n\r\n" + body


_STREAMS = st.builds(
    lambda responses, tail: b"".join(responses) + tail,
    st.lists(_framed_response(), max_size=6),
    st.sampled_from([b""] * 3 + [b"junk", b"HTTP/1.0 200 OK\r\n\r\n7", b"\r\n"]),
)


#: A response head up to its Content-Length value.
_LENGTH = b"HTTP/1.0 200 OK\r\nContent-Length: "


class TestResponseFraming:
    def test_pipelined_responses_split_into_their_frames(self):
        first = error_response(404, "gone").to_bytes()
        second = file_response(b"<html>hi</html>", "/index.html").to_bytes()
        responses = split_responses(first + second + first)
        assert [status for status, _, _ in responses] == [404, 200, 404]
        assert responses[1][2] == b"<html>hi</html>"
        assert split_responses(b"") == []

    @pytest.mark.parametrize(
        "raw",
        [
            b"HTTP/1.0 200 OK\r\nContent-Length: -3\r\n\r\nabcdef",
            b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\nHTTP/1.0 200 OK\r\ncontent-length: -1",
        ],
    )
    def test_a_negative_length_is_a_parse_error(self, raw):
        with pytest.raises(HttpParseError, match="negative Content-Length"):
            split_responses(raw)

    @pytest.mark.parametrize("parse", [split_responses, parse_response])
    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"HTTP/1.0 OK\r\n\r\n", "non-numeric status: 'OK'"),
            (b"HTTP/1.0 +200 OK\r\n\r\n", "non-numeric status: '+200'"),
            (b"HTTP/1.0 2_00 OK", "non-numeric status: '2_00'"),
            (_LENGTH + b"1_0\r\n\r\nab", "non-numeric Content-Length: '1_0'"),
            (_LENGTH + b"+3\r\n\r\nabc", "non-numeric Content-Length: '+3'"),
            (_LENGTH + b"abc\r\n\r\n", "non-numeric Content-Length: 'abc'"),
            (_LENGTH + b"\r\n\r\n", "non-numeric Content-Length: ''"),
            # A superscript two is a digit to str.isdigit, but not ASCII.
            (_LENGTH + b"\xb2\r\n\r\nab", "non-numeric Content-Length: '\xb2'"),
            (_LENGTH + b"-3\r\n\r\nabc", "negative Content-Length: -3"),
        ],
    )
    def test_a_status_or_length_of_anything_but_digits_is_a_parse_error(
        self, parse, raw, message
    ):
        with pytest.raises(HttpParseError, match=re.escape(message)):
            parse(raw)

    @settings(max_examples=300, deadline=None)
    @given(raw=_STREAMS)
    @example(raw=b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nab" * 3)
    @example(raw=b"HTTP/1.0 200 OK\r\nContent-Length: 9\r\n\r\nab")
    @example(raw=b"HTTP/1.0 200 OK\r\nContent-Length: x\r\n\r\n")
    @example(raw=b"garbage")
    def test_the_offset_walk_matches_the_re_splitting_oracle(self, raw):
        assert _outcome(split_responses, raw) == _outcome(_oracle_split_responses, raw)
        assert _outcome(parse_response, raw) == _outcome(_oracle_parse_response, raw)


class TestVulnerableState:
    def test_layout_places_uid_after_buffer(self):
        layout = build_server_state(AddressSpace(), worker_uid=33, worker_gid=33, admin_uid=0)
        base = layout.annotation_buf.offset
        assert layout.worker_uid.offset - base == ANNOTATION_BUFFER_SIZE
        assert layout.banner_ptr.offset > layout.admin_uid.offset

    def test_in_bounds_copy_leaves_uid_intact(self):
        layout = build_server_state(AddressSpace(), worker_uid=33, worker_gid=33, admin_uid=0)
        copy_annotation_header(layout, "short note")
        assert layout.worker_uid.get() == 33

    def test_overflow_overwrites_uid(self):
        layout = build_server_state(AddressSpace(), worker_uid=33, worker_gid=33, admin_uid=0)
        payload = "A" * ANNOTATION_BUFFER_SIZE + "\x00\x00\x00\x00"
        copy_annotation_header(layout, payload)
        assert layout.worker_uid.get() == 0

    def test_banner_readable_through_pointer(self):
        space = AddressSpace(scheme=high_bit_scheme(), index=1)
        layout = build_server_state(space, worker_uid=33, worker_gid=33, admin_uid=0)
        assert read_banner(space, layout) == BANNER_TEXT


def run_standalone_server(kernel, *, transformed=False, max_requests=None):
    """Serve from one httpd process (a one-variant session); returns
    (server, the variant's outcome)."""
    servers = []

    def factory(context):
        server = MiniHttpd(
            context.libc, context.uid_codec, context.address_space,
            transformed=transformed, max_requests=max_requests,
        )
        servers.append(server)
        return server.run()

    spec = SystemSpec(num_variants=1, transformed=transformed)
    result = build_session(spec, kernel, factory, name="httpd").run()
    return servers[0], result.variants[0]


class TestStandaloneServer:
    def test_serves_static_files(self):
        kernel = build_standard_host()
        kernel.client_connect(HTTP_PORT, format_request("/index.html"))
        kernel.client_connect(HTTP_PORT, format_request("/docs/faq.html"))
        server, result = run_standalone_server(kernel, max_requests=2)
        assert result.exited_normally
        statuses = [parse_response(c.response_bytes())[0] for c in kernel.network.connections]
        assert statuses == [200, 200]

    def test_404_for_missing_file_and_error_log_written(self):
        kernel = build_standard_host()
        kernel.client_connect(HTTP_PORT, format_request("/missing.html"))
        run_standalone_server(kernel, max_requests=1)
        status, _, _ = parse_response(kernel.network.connections[0].response_bytes())
        assert status == 404
        assert b"status 404" in kernel.fs.read_file("/var/log/httpd/error_log")

    def test_privileges_dropped_during_static_serving(self):
        kernel = build_standard_host()
        kernel.client_connect(HTTP_PORT, format_request("/index.html"))
        server, _ = run_standalone_server(kernel, max_requests=1)
        assert server.report.served[0].euid_during_serve == 33

    def test_direct_shadow_request_denied_when_privileges_dropped(self):
        kernel = build_standard_host()
        kernel.client_connect(HTTP_PORT, format_request("/../../../etc/shadow"))
        run_standalone_server(kernel, max_requests=1)
        status, _, _ = parse_response(kernel.network.connections[0].response_bytes())
        assert status == 403

    def test_admin_endpoint_requires_token(self):
        kernel = build_standard_host()
        kernel.client_connect(HTTP_PORT, format_request("/admin/status"))
        kernel.client_connect(
            HTTP_PORT, format_request("/admin/status", headers={"X-Admin-Token": "letmein"})
        )
        run_standalone_server(kernel, max_requests=2)
        responses = [parse_response(c.response_bytes()) for c in kernel.network.connections]
        assert responses[0][0] == 403
        assert responses[1][0] == 200
        assert b"top secret" in responses[1][2]

    def test_bad_request_and_unsupported_method(self):
        kernel = build_standard_host()
        kernel.client_connect(HTTP_PORT, b"NONSENSE\r\n\r\n")
        kernel.client_connect(HTTP_PORT, format_request("/index.html", method="DELETE"))
        run_standalone_server(kernel, max_requests=2)
        statuses = [parse_response(c.response_bytes())[0] for c in kernel.network.connections]
        assert statuses == [400, 405]

    def test_head_request_returns_empty_body(self):
        kernel = build_standard_host()
        kernel.client_connect(HTTP_PORT, format_request("/index.html", method="HEAD"))
        run_standalone_server(kernel, max_requests=1)
        status, _, body = parse_response(kernel.network.connections[0].response_bytes())
        assert status == 200 and body == b""

    def test_access_log_records_every_request(self):
        kernel = build_standard_host()
        for path in ("/index.html", "/news.html", "/missing.html"):
            kernel.client_connect(HTTP_PORT, format_request(path))
        run_standalone_server(kernel, max_requests=3)
        log = kernel.fs.read_file("/var/log/httpd/access_log").decode()
        assert log.count("\n") == 3 and "/news.html" in log

    def test_server_exits_when_queue_is_empty(self):
        kernel = build_standard_host()
        kernel.client_connect(HTTP_PORT, format_request("/index.html"))
        server, result = run_standalone_server(kernel)
        assert result.exited_normally
        assert server.report.requests_handled == 1


#: Per app: a heavily and a lightly weighted path of its default mix, and
#: the status that marks a completed request.
APP_CASES = {
    "httpd": ("/index.html", "/downloads/archive.bin", 200),
    "ftpd": ("/welcome.txt", "/pub/dataset.bin", 226),
}
APPS = sorted(APP_CASES)

#: ``drive_standalone`` figures for six default-mix requests.
PINNED_STANDALONE_SYSCALLS = {
    ("httpd", False): 124,
    ("httpd", True): 132,
    ("ftpd", False): 182,
    ("ftpd", True): 190,
}
PINNED_STANDALONE_STATUSES = {
    "httpd": {200: 6},
    "ftpd": {220: 6, 331: 6, 230: 6, 150: 6, 226: 6, 221: 5},
}


class TestWebBenchWorkload:
    @pytest.mark.parametrize("app", APPS)
    def test_mix_expansion_respects_weights_and_length(self, app):
        heavy, light, _ = APP_CASES[app]
        workload = WebBenchWorkload(app=app, total_requests=32)
        paths = workload.request_paths()
        assert len(paths) == 32
        assert paths.count(heavy) > paths.count(light)

    def test_connection_payloads_are_valid_http(self):
        workload = WebBenchWorkload(total_requests=3)
        for raw in workload.connection_payloads():
            assert parse_request(raw).method == "GET"

    def test_concurrent_clients(self):
        workload = WebBenchWorkload(client_engines=5, client_machines=3)
        assert workload.concurrent_clients == 15

    @pytest.mark.parametrize("app", APPS)
    def test_empty_mix_rejected(self, app):
        with pytest.raises(ValueError):
            WebBenchWorkload(app=app, total_requests=1, mix=()).request_paths()

    @pytest.mark.parametrize("app", APPS)
    def test_standalone_measurement_counts(self, app):
        *_, ok_status = APP_CASES[app]
        measurement = drive_standalone(
            WebBenchWorkload(app=app, total_requests=8), transformed=False
        )
        assert measurement.completed_ok
        assert measurement.requests_completed == 8
        assert measurement.status_counts[ok_status] == 8
        assert measurement.response_bytes > 0
        assert measurement.num_variants == 1
        assert measurement.per_request_syscalls() > 0

    @pytest.mark.parametrize("transformed", [False, True])
    @pytest.mark.parametrize("app", APPS)
    def test_standalone_measurement_is_pinned(self, app, transformed):
        """The unprotected baseline (Table 3 configurations 1 and 2) reports
        exactly these figures; every field feeds the performance model."""
        measurement = drive_standalone(
            WebBenchWorkload(app=app, total_requests=6), transformed=transformed
        )
        syscalls = PINNED_STANDALONE_SYSCALLS[(app, transformed)]
        assert dataclasses.asdict(measurement) == {
            "configuration": "standalone",
            "num_variants": 1,
            "requests_sent": 6,
            "requests_completed": 6,
            "status_counts": PINNED_STANDALONE_STATUSES[app],
            "response_bytes": {"httpd": 6144, "ftpd": 3072}[app],
            "syscalls_total": syscalls,
            "syscalls_per_variant": [syscalls],
            "bytes_read": {"httpd": 7219, "ftpd": 4044}[app],
            "bytes_written": {"httpd": 6876, "ftpd": 4066}[app],
            "replicated_calls": 0,
            "per_variant_calls": syscalls,
            "monitor_checks": 0,
            "detection_calls": 8 if transformed else 0,
            "alarms": 0,
            "concurrent_clients": 1,
        }

    def test_transformed_standalone_adds_detection_calls(self):
        plain = drive_standalone(WebBenchWorkload(total_requests=6), transformed=False)
        transformed = drive_standalone(WebBenchWorkload(total_requests=6), transformed=True)
        assert transformed.detection_calls > plain.detection_calls

    @pytest.mark.parametrize("app", APPS)
    def test_nvariant_measurement_has_wrapper_stats(self, app):
        from repro.api.spec import ADDRESS_UID_SPEC

        measurement, result = drive_nvariant(
            WebBenchWorkload(app=app, total_requests=6), ADDRESS_UID_SPEC
        )
        assert measurement.completed_ok
        assert result.completed_normally
        assert measurement.replicated_calls > 0
        assert measurement.per_variant_calls > 0
        assert measurement.monitor_checks > 0
        assert measurement.detection_calls > 0
        assert measurement.num_variants == 2

    def test_default_mix_paths_exist_on_standard_host(self, kernel):
        for entry in DEFAULT_STATIC_MIX:
            assert kernel.fs.exists("/var/www/html" + entry.path)
