"""Checkpoint/restore/migration: continuation must be indistinguishable.

The load subsystem's strongest claim is that a checkpoint is *complete*: a
restored session is byte-for-byte the session it replaced -- same keyed
secrets, same responses to the queued conversations, same detection
verdicts for whatever attack bytes were waiting.  These tests pin the
serialization format (JSON round trip, version/key validation), the secret
hand-off (restore installs the recorded secrets before variant spawn), and
-- as hypothesis properties -- that neither checkpoint/restore, a mid-run
migration, nor a non-shedding admission policy ever changes a workload's
observable outcome.  The open-loop driver's blocking accept must also keep
every variant in step under each registered interposition table.
"""

import dataclasses
import functools
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.experiments.loadtest import MIGRATION_PARITY_FIELDS
from repro.api.spec import keyed_uid_spec, uid_orbit_spec
from repro.attacks.payloads import benign_request, uid_overwrite_payload
from repro.engine import SessionState
from repro.load import (
    ATTACK_KINDS,
    LoadError,
    SessionCheckpoint,
    build_serving_session,
    keyed_secrets,
    restore,
    run_loadtest,
)
from repro.load.checkpoint import checkpoint

HTTP_PORT = 80


def _serving_session(spec, payloads, *, name="origin"):
    """A fresh serving session with *payloads* queued on its listener."""
    session = build_serving_session(spec, "httpd", name=name, max_requests=len(payloads))
    for index, payload in enumerate(payloads):
        session.kernel.client_connect(HTTP_PORT, payload, client=f"c{index}")
    return session


def _drain(session):
    """Run a session to its terminal state; return its observable outcome."""
    while not session.done:
        session.step()
    result = session.result()
    responses = [
        (conn.client, conn.response_bytes())
        for conn in session.kernel.network.connections
    ]
    alarm_signature = [(a.alarm_type, a.syscall) for a in result.alarms]
    return {
        "state": session.state,
        "alarms": alarm_signature,
        "responses": sorted(responses),
    }


class TestCheckpointFormat:
    def test_round_trips_through_json(self):
        session = _serving_session(
            keyed_uid_spec(2, key_bits=8), [benign_request(), benign_request("/news.html")]
        )
        cp = checkpoint(session)
        wire = json.dumps(cp.to_dict(), sort_keys=True)
        revived = SessionCheckpoint.from_dict(json.loads(wire))
        assert revived == cp
        assert revived.secrets == keyed_secrets(session)
        assert [p.data for p in revived.pending] == [
            benign_request(),
            benign_request("/news.html"),
        ]

    def test_unknown_keys_rejected(self):
        session = _serving_session(uid_orbit_spec(2), [benign_request()])
        data = checkpoint(session).to_dict()
        data["paused_registers"] = []
        with pytest.raises(LoadError, match="unknown checkpoint keys"):
            SessionCheckpoint.from_dict(data)

    def test_future_version_rejected(self):
        session = _serving_session(uid_orbit_spec(2), [benign_request()])
        data = checkpoint(session).to_dict()
        data["version"] = 2
        with pytest.raises(LoadError, match="unsupported checkpoint version"):
            SessionCheckpoint.from_dict(data)

    def test_unstamped_session_cannot_checkpoint(self):
        from repro.apps.httpd.server import make_httpd_factory
        from repro.core.variations.uid import UIDVariation
        from repro.engine import NVariantSession
        from repro.kernel.host import build_standard_host

        bare = NVariantSession(
            build_standard_host(), make_httpd_factory(transformed=True), [UIDVariation()]
        )
        with pytest.raises(LoadError, match="no construction recipe"):
            checkpoint(bare)

    def test_mid_burst_checkpoint_refused(self):
        session = _serving_session(uid_orbit_spec(2), [benign_request()])
        session.step()
        assert session.state is SessionState.RUNNING
        with pytest.raises(LoadError, match="mid-burst"):
            checkpoint(session)

    def test_secret_position_out_of_range_rejected(self):
        session = _serving_session(keyed_uid_spec(2, key_bits=8), [benign_request()])
        cp = checkpoint(session)
        corrupt = SessionCheckpoint.from_dict(
            {**cp.to_dict(), "secrets": [{"position": 5, "values": [1, 2]}]}
        )
        with pytest.raises(LoadError, match="position 5"):
            restore(corrupt)

    @pytest.mark.parametrize(
        "spec,secrets,position",
        [
            # The session's keyed UID variation sits at position 0.
            (keyed_uid_spec(2, seed=5), [{"position": -1, "values": [1, 2]}], -1),
            (keyed_uid_spec(2, seed=5), [{"position": 0, "values": [1, 2]}] * 2, 0),
            (keyed_uid_spec(2, seed=5), [], 0),
            (uid_orbit_spec(2), [{"position": 0, "values": [1, 2]}], 0),
        ],
        ids=["negative", "duplicate", "missing", "unkeyed"],
    )
    def test_secret_positions_must_be_the_keyed_positions(self, spec, secrets, position):
        cp = checkpoint(_serving_session(spec, [benign_request()]))
        corrupt = SessionCheckpoint.from_dict({**cp.to_dict(), "secrets": secrets})
        with pytest.raises(LoadError, match=f"position {position}\\b"):
            restore(corrupt)

    def test_corrupt_secret_values_rejected(self):
        session = _serving_session(keyed_uid_spec(2, key_bits=8), [benign_request()])
        cp = checkpoint(session)
        corrupt = SessionCheckpoint.from_dict(
            {**cp.to_dict(), "secrets": [{"position": 0, "values": [3]}]}
        )
        with pytest.raises(Exception, match="secret|values|expects"):
            restore(corrupt)


    @pytest.mark.parametrize(
        "entry,field",
        [
            ({"values": [1, 2]}, "position"),
            ({"position": 0}, "values"),
            ({"position": "first", "values": [1, 2]}, "position"),
            ({"position": 1.5, "values": [1, 2]}, "position"),
            ({"position": True, "values": [1, 2]}, "position"),
            ({"position": 0, "values": [1, "two"]}, "values"),
            ({"position": 0, "values": 12}, "values"),
            ({"position": 0, "values": [1, 2], "salt": 9}, "salt"),
            ("position 0", "object"),
        ],
        ids=[
            "no-position", "no-values", "word-position", "float-position",
            "bool-position", "word-value", "scalar-values", "unknown-key", "not-an-object",
        ],
    )
    def test_a_malformed_secret_entry_is_a_load_error_naming_the_field(self, entry, field):
        data = checkpoint(_serving_session(keyed_uid_spec(2, seed=5), [benign_request()])).to_dict()
        with pytest.raises(LoadError, match=field):
            SessionCheckpoint.from_dict({**data, "secrets": [entry]})

    @pytest.mark.parametrize(
        "change,field",
        [
            ({"data": "not hex"}, "data"),
            ({"data": 7}, "data"),
            ({"port": "eighty"}, "port"),
            ({"port": 80.0}, "port"),
            ({"port": None}, "port"),
        ],
        ids=["non-hex-data", "numeric-data", "word-port", "float-port", "null-port"],
    )
    def test_a_malformed_pending_request_is_a_load_error_naming_the_field(self, change, field):
        data = checkpoint(_serving_session(uid_orbit_spec(2), [benign_request()])).to_dict()
        pending = [{**data["pending"][0], **change}]
        with pytest.raises(LoadError, match=field):
            SessionCheckpoint.from_dict({**data, "pending": pending})

    @pytest.mark.parametrize("field", ["port", "client", "data"])
    def test_a_pending_request_missing_a_field_is_a_load_error(self, field):
        data = checkpoint(_serving_session(uid_orbit_spec(2), [benign_request()])).to_dict()
        pending = [{k: v for k, v in data["pending"][0].items() if k != field}]
        with pytest.raises(LoadError, match=f"missing '{field}'"):
            SessionCheckpoint.from_dict({**data, "pending": pending})

    @pytest.mark.parametrize(
        "values", [[3], [1, 2, 3], [5, 5]], ids=["short", "long", "repeated"]
    )
    def test_secret_values_that_do_not_fit_the_scheme_are_a_load_error(self, values):
        session = _serving_session(keyed_uid_spec(2, key_bits=8), [benign_request()])
        corrupt = SessionCheckpoint.from_dict(
            {**checkpoint(session).to_dict(), "secrets": [{"position": 0, "values": values}]}
        )
        with pytest.raises(LoadError, match="'values' at variation position 0"):
            restore(corrupt)


class TestRestoreFidelity:
    def test_restored_session_preserves_keyed_secrets(self):
        session = _serving_session(keyed_uid_spec(2, key_bits=8), [benign_request()])
        restored = restore(checkpoint(session), name="moved")
        assert keyed_secrets(restored) == keyed_secrets(session)
        assert restored.name == "moved"
        assert restored.spec == session.spec
        assert restored.serving == session.serving

    def test_restored_session_serves_identical_outcome(self):
        payloads = [benign_request(), benign_request("/news.html")]
        session = _serving_session(keyed_uid_spec(2, key_bits=6), payloads)
        cp = checkpoint(session)
        original = _drain(session)
        moved = _drain(restore(cp))
        assert moved == original
        assert original["state"] is SessionState.COMPLETED
        assert original["alarms"] == []

    def test_restored_session_reaches_same_detection_verdict(self):
        payloads = [benign_request(), uid_overwrite_payload(0)]
        session = _serving_session(keyed_uid_spec(2, key_bits=8), payloads)
        cp = checkpoint(session)
        original = _drain(session)
        moved = _drain(restore(cp))
        assert original["state"] is SessionState.HALTED
        assert moved["state"] is SessionState.HALTED
        assert moved["alarms"] == original["alarms"]


PATHS = ("/index.html", "/news.html", "/docs/faq.html", "/products.html")


class TestContinuationProperties:
    @given(
        path_picks=st.lists(st.sampled_from(PATHS), min_size=1, max_size=4),
        key_bits=st.integers(4, 8),
        attack=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_restore_never_changes_the_outcome(self, path_picks, key_bits, attack):
        payloads = [benign_request(path) for path in path_picks]
        if attack:
            payloads.append(uid_overwrite_payload(0))
        session = _serving_session(keyed_uid_spec(2, key_bits=key_bits), payloads)
        cp = checkpoint(session)
        assert _drain(restore(cp)) == _drain(session)

    @given(
        seed=st.integers(0, 2**31),
        capacity=st.integers(24, 64),
        attack=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_non_shedding_admission_never_changes_detection(self, seed, capacity, attack):
        # With capacity comfortably above the workload, bounded-queue
        # admission must be observationally identical to accept-all.
        attacks = ("uid-overwrite",) if attack else ()
        kwargs = dict(requests=6, rate=15.0, seed=seed, attacks=attacks)
        spec = uid_orbit_spec(2)
        control = run_loadtest(spec, **kwargs)
        bounded = run_loadtest(
            spec,
            admission="bounded-queue",
            admission_params={"capacity": capacity, "drop": "oldest"},
            **kwargs,
        )
        assert bounded.shed == 0
        assert bounded.response_digest == control.response_digest
        assert bounded.attack_outcomes == control.attack_outcomes
        assert bounded.alarms == control.alarms
        assert bounded.completed == control.completed


#: Seeded open-loop cells whose migrated run hands off at an idle accept
#: (the old server exits cleanly) and at a monitor halt, respectively.
IDLE_HANDOFF = dict(seed=1, arrival="poisson", migrate_after=1, attacks=False)
HALT_HANDOFF = dict(seed=0, arrival="poisson", migrate_after=3, attacks=True)


def _straight_and_migrated(seed, arrival, migrate_after, attacks):
    """One cell run straight and with a hand-off, plus the states handed off in."""
    spec = keyed_uid_spec(2, key_bits=8)
    kwargs = dict(
        arrival=arrival,
        rate=40.0,
        requests=8,
        seed=seed,
        attacks=ATTACK_KINDS if attacks else (),
    )
    straight = run_loadtest(spec, **kwargs)
    handed_off = []

    def recording_checkpoint(session):
        handed_off.append(session.state)
        return checkpoint(session)

    with mock.patch("repro.load.driver.checkpoint", recording_checkpoint):
        migrated = run_loadtest(spec, migrate_after=migrate_after, **kwargs)
    return straight.to_dict(), migrated.to_dict(), handed_off


class TestMigrationParity:
    @given(
        seed=st.integers(0, 2**31),
        arrival=st.sampled_from(["poisson", "bursty"]),
        migrate_after=st.integers(1, 8),
        attacks=st.booleans(),
    )
    @example(**IDLE_HANDOFF)
    @example(**HALT_HANDOFF)
    @settings(max_examples=25, deadline=None)
    def test_a_hand_off_never_changes_what_clients_see(
        self, seed, arrival, migrate_after, attacks
    ):
        straight, migrated, handed_off = _straight_and_migrated(
            seed, arrival, migrate_after, attacks
        )
        assert len(handed_off) == int(migrated["migrated"])
        for field in MIGRATION_PARITY_FIELDS:
            assert migrated[field] == straight[field], field
        # The standby's start-up runs off the global timeline.
        assert migrated["end_tick"] == straight["end_tick"]

    def test_the_examples_hand_off_at_an_idle_accept_and_at_a_halt(self):
        assert _straight_and_migrated(**IDLE_HANDOFF)[2] == [SessionState.COMPLETED]
        assert _straight_and_migrated(**HALT_HANDOFF)[2] == [SessionState.HALTED]


class TestLockstepSafety:
    @pytest.mark.parametrize("app", ["httpd", "ftpd"])
    @pytest.mark.parametrize("table", ["classic", "wide"])
    def test_blocking_accept_keeps_every_variant_in_step(self, table, app):
        # accept blocks once per round, for all variants together; a table
        # that ran it per variant would hand each variant a different
        # arrival and alarm on the first benign request.
        spec = dataclasses.replace(uid_orbit_spec(3), interposition=table)
        result = run_loadtest(
            spec, app=app, arrival="bursty", rate=20.0, requests=12, seed=7
        )
        assert result.alarms == 0
        assert result.completed > 0
        assert result.completed + result.evicted + result.aborted == result.admitted


class TestBackendParity:
    def test_process_backend_reproduces_virtual_cell(self):
        from repro.engine.campaign import CampaignJob, run_jobs
        from repro.load import LoadtestCell

        kwargs = {
            "spec": uid_orbit_spec(2),
            "arrival": "bursty",
            "rate": 30.0,
            "requests": 8,
            "admission": "token-bucket",
            "admission_params": {"rate": 25.0, "burst": 2.0},
            "seed": 424242,
        }
        local = run_loadtest(**kwargs).to_dict()
        jobs = [CampaignJob("cell", functools.partial(LoadtestCell, kwargs))]
        campaign = run_jobs(jobs, backend="process", workers=2)
        assert campaign.jobs[0].value == local
