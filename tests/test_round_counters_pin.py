"""What four representative sessions count, pinned as literals.

Every statistic a lockstep session leaves behind -- the monitor's counters
and per-syscall alarm breakdown, the wrapper layer's accounting, the
kernel's per-syscall breakdown, each alarm's classification and rendering,
the round count, the virtual ticks and the bytes the clients received -- is
recorded here for four sessions that together cover every kind of round:

* a shard of the keep-alive httpd fleet (N=2, address+uid, multiplex 4),
  almost all of whose rounds are uniform and need no rewriting;
* a ``uid-overwrite`` attack cell whose detection call alarms and halts;
* an ftpd session under the three-variant UID orbit, where credentials and
  UID comparisons are canonicalised and decoded every request;
* a ``halt_on_alarm=False`` session that keeps going through a mixed-name
  round and a round whose uniform call carries divergent arguments.

The literals were taken from the layered round (comparator, transform,
wrappers, result transform as separate calls).  Any change to how a round
is executed must leave every one of them exactly as it is.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.api.builders import build_session
from repro.api.spec import ADDRESS_UID_SPEC, UID_DIVERSITY_SPEC, uid_orbit_spec
from repro.apps.clients.webbench import WebBenchWorkload
from repro.apps.httpd.server import make_httpd_factory
from repro.attacks.uid_attacks import prepare_uid_attack
from repro.corpus.runner import build_attack
from repro.core.variations.address import AddressPartitioning
from repro.core.variations.uid import UIDVariation
from repro.engine import NVariantSession, SessionState
from repro.kernel.host import HTTP_PORT, build_standard_host
from repro.load import build_serving_session


def _observe(session):
    """Drive *session* to its end and return everything it counted."""
    while not session.done:
        session.step()
    sent = hashlib.sha256()
    for connection in session.kernel.network.connections:
        sent.update(connection.response_bytes())
    return {
        "state": session.state.value,
        "monitor": dataclasses.asdict(session.monitor.stats),
        "wrappers": dataclasses.asdict(session.wrappers.stats),
        "kernel": dict(sorted(session.kernel.stats.syscall_breakdown.items())),
        "alarms": [
            (alarm.alarm_type.value, alarm.syscall, alarm.variant_values, alarm.lockstep_index)
            for alarm in session.monitor.alarms
        ],
        "rounds": session.rounds,
        "virtual_elapsed": session.virtual_elapsed,
        "sent_sha256": sent.hexdigest(),
    }


def fleet_shard():
    workload = WebBenchWorkload(total_requests=8, requests_per_connection=4)
    kernel = build_standard_host()
    for payload in workload.connection_payloads():
        kernel.client_connect(HTTP_PORT, payload)
    factory = make_httpd_factory(
        transformed=ADDRESS_UID_SPEC.transformed, max_requests=8, multiplex=4
    )
    return build_session(ADDRESS_UID_SPEC, kernel, factory, name="fleet-s0")


def uid_overwrite_cell():
    attack = build_attack({"kind": "uid-overwrite", "uid": 0, "partial_bytes": 4})
    return prepare_uid_attack(attack, UID_DIVERSITY_SPEC).start()


def ftpd_orbit():
    workload = WebBenchWorkload(app="ftpd", total_requests=4, requests_per_connection=2)
    session = build_serving_session(uid_orbit_spec(3), "ftpd", max_requests=4)
    for payload in workload.connection_payloads():
        workload.serving_app.connect(session.kernel, payload)
    return session


def mixed_name_rounds():
    def factory(context):
        libc = context.libc

        def program():
            yield libc.getpid()
            if context.index == 0:
                yield libc.getuid()
            else:
                yield libc.getpid()
            yield libc.seteuid(context.uid_codec.encode(33))
            yield libc.cc_lt(context.uid_codec.encode(33), context.uid_codec.encode(1000))
            yield libc.write(1, b"variant %d" % context.index)
            yield libc.time()
            yield libc.exit(0)

        return program()

    return NVariantSession(
        build_standard_host(),
        factory,
        [AddressPartitioning(), UIDVariation()],
        halt_on_alarm=False,
        name="mixed",
    )


SESSIONS = {
    "fleet-shard": fleet_shard,
    "uid-overwrite-cell": uid_overwrite_cell,
    "ftpd-orbit-3": ftpd_orbit,
    "mixed-name": mixed_name_rounds,
}


EXPECTED = {
    "fleet-shard": {
        "state": "completed",
        "monitor": {
            "lockstep_points": 139,
            "syscalls_compared": 278,
            "detection_calls_checked": 10,
            "alarms_raised": 0,
            "fast_path_rounds": 97,
            "alarm_breakdown": {},
        },
        "wrappers": {
            "replicated_calls": 72,
            "per_variant_calls": 67,
            "unshared_opens": 2,
            "checks": 139,
            "denied_calls": 0,
        },
        "kernel": {
            "accept": 3,
            "bind": 1,
            "cc_eq": 16,
            "close": 18,
            "exit": 2,
            "geteuid": 32,
            "listen": 1,
            "open": 15,
            "read": 26,
            "recv": 4,
            "send": 8,
            "setegid": 32,
            "seteuid": 32,
            "shutdown": 3,
            "socket": 1,
            "uid_value": 4,
            "write": 8,
        },
        "alarms": [],
        "rounds": 140,
        "virtual_elapsed": 206,
        "sent_sha256": "b515e0a7b583e89c0b95ca65f822268d88a600f744e4ee800d146c6de1efef37",
    },
    "uid-overwrite-cell": {
        "state": "halted",
        "monitor": {
            "lockstep_points": 43,
            "syscalls_compared": 86,
            "detection_calls_checked": 4,
            "alarms_raised": 1,
            "fast_path_rounds": 34,
            "alarm_breakdown": {"setegid": 1},
        },
        "wrappers": {
            "replicated_calls": 23,
            "per_variant_calls": 19,
            "unshared_opens": 2,
            "checks": 42,
            "denied_calls": 0,
        },
        "kernel": {
            "accept": 2,
            "bind": 1,
            "cc_eq": 4,
            "close": 7,
            "geteuid": 6,
            "listen": 1,
            "open": 8,
            "read": 12,
            "recv": 4,
            "send": 1,
            "setegid": 4,
            "seteuid": 4,
            "shutdown": 1,
            "socket": 1,
            "uid_value": 4,
            "write": 1,
        },
        "alarms": [("uid-divergence", "setegid", ((0,), (255,)), 43)],
        "rounds": 43,
        "virtual_elapsed": 61,
        "sent_sha256": "48ad11fdb9919ae28c37d974477a77e2612425ba102d8e0fadfac24347f4e1b8",
    },
    "ftpd-orbit-3": {
        "state": "completed",
        "monitor": {
            "lockstep_points": 112,
            "syscalls_compared": 336,
            "detection_calls_checked": 6,
            "alarms_raised": 0,
            "fast_path_rounds": 90,
            "alarm_breakdown": {},
        },
        "wrappers": {
            "replicated_calls": 73,
            "per_variant_calls": 39,
            "unshared_opens": 2,
            "checks": 112,
            "denied_calls": 0,
        },
        "kernel": {
            "accept": 4,
            "bind": 2,
            "cc_eq": 12,
            "close": 19,
            "exit": 3,
            "geteuid": 24,
            "listen": 2,
            "open": 13,
            "read": 22,
            "recv": 4,
            "send": 19,
            "setegid": 24,
            "seteuid": 24,
            "shutdown": 6,
            "socket": 2,
            "uid_value": 6,
            "write": 4,
        },
        "alarms": [],
        "rounds": 113,
        "virtual_elapsed": 190,
        "sent_sha256": "54e2bf6c71b97f48b50ceaff42fec2f0b957276fdc592b098c5fb269a71787ef",
    },
    "mixed-name": {
        "state": "completed",
        "monitor": {
            "lockstep_points": 7,
            "syscalls_compared": 14,
            "detection_calls_checked": 1,
            "alarms_raised": 2,
            "fast_path_rounds": 3,
            "alarm_breakdown": {"getpid/getuid": 1, "write": 1},
        },
        "wrappers": {
            "replicated_calls": 3,
            "per_variant_calls": 4,
            "unshared_opens": 0,
            "checks": 7,
            "denied_calls": 0,
        },
        "kernel": {
            "cc_lt": 2,
            "exit": 2,
            "getpid": 2,
            "getuid": 1,
            "seteuid": 2,
            "time": 1,
            "write": 1,
        },
        "alarms": [
            ("syscall-mismatch", "getpid/getuid", ("getuid()", "getpid()"), 2),
            ("argument-mismatch", "write", ((1, b"variant 0"), (1, b"variant 1")), 5),
        ],
        "rounds": 8,
        "virtual_elapsed": 11,
        "sent_sha256": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


def test_every_session_counts_what_the_layered_round_counted():
    for label, build in SESSIONS.items():
        assert _observe(build()) == EXPECTED[label], label


def test_the_sessions_cover_every_kind_of_round():
    observed = {label: _observe(build()) for label, build in SESSIONS.items()}
    assert observed["uid-overwrite-cell"]["state"] == SessionState.HALTED.value
    mixed = observed["mixed-name"]
    assert mixed["state"] == SessionState.COMPLETED.value
    assert [kind for kind, *_ in mixed["alarms"]] == ["syscall-mismatch", "argument-mismatch"]
    for label in ("fleet-shard", "ftpd-orbit-3"):
        stats = observed[label]["monitor"]
        assert stats["alarms_raised"] == 0
        assert 0 < stats["fast_path_rounds"] < stats["lockstep_points"]
