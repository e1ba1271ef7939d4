"""Concurrent multi-session engine: determinism, halt policies, fresh stats.

The engine's claim is that interleaving changes *scheduling*, never
*behaviour*: N sessions run concurrently must produce exactly the alarms and
HTTP responses of the same N sessions run back-to-back, and one session's
alarm must stop only that session under the per-session halt policy.
"""

import dataclasses
import functools

import pytest

from repro.apps.clients.webbench import WebBenchWorkload, drive_engine
from repro.apps.httpd.server import make_httpd_factory
from repro.attacks.payloads import benign_request, uid_overwrite_payload
from repro.core.variations.address import AddressPartitioning
from repro.core.variations.uid import UIDVariation
from repro.engine import (
    CampaignHaltPolicy,
    CampaignJob,
    CampaignScheduler,
    HaltPolicy,
    MultiSessionEngine,
    NVariantSession,
    RoundLimitError,
    SessionState,
    run_sessions,
)
from repro.engine import scheduler
from repro.kernel.host import HTTP_PORT, build_standard_host


def _variations():
    return [AddressPartitioning(), UIDVariation()]


def _httpd_session(name, payloads, *, max_requests=None):
    """A 2-variant transformed httpd session on its own host, pre-loaded."""
    kernel = build_standard_host()
    for payload in payloads:
        kernel.client_connect(HTTP_PORT, payload)
    factory = make_httpd_factory(
        transformed=True, max_requests=max_requests if max_requests is not None else len(payloads)
    )
    session = NVariantSession(kernel, factory, _variations(), name=name)
    return kernel, session


def _benign_payloads(count, path="/index.html"):
    return [benign_request(path) for _ in range(count)]


def _responses(kernel):
    return [conn.response_bytes() for conn in kernel.network.connections]


def _alarm_signature(result):
    return [(alarm.alarm_type, alarm.syscall) for alarm in result.alarms]


def _total_alarms(engine_result):
    return sum(len(job.value.alarms) for job in engine_result.jobs)


@dataclasses.dataclass
class _Given:
    """A cell over an already built session; finishes with its state."""

    session: NVariantSession

    def start(self):
        return self.session

    def finish(self, session):
        return session.state


class TestInterleavingDeterminism:
    def test_concurrent_sessions_match_sequential_runs(self):
        paths = ["/index.html", "/news.html", "/docs/faq.html", "/products.html"]
        sequential = []
        for index, path in enumerate(paths):
            kernel, session = _httpd_session(f"seq-{index}", _benign_payloads(3, path))
            result = session.run()
            sequential.append((_alarm_signature(result), _responses(kernel)))

        concurrent_sessions = []
        concurrent_kernels = []
        for index, path in enumerate(paths):
            kernel, session = _httpd_session(f"con-{index}", _benign_payloads(3, path))
            concurrent_kernels.append(kernel)
            concurrent_sessions.append(session)
        engine_result = run_sessions(concurrent_sessions)

        assert _total_alarms(engine_result) == 0
        for index, entry in enumerate(engine_result.jobs):
            assert entry.state is SessionState.COMPLETED
            expected_alarms, expected_responses = sequential[index]
            assert _alarm_signature(entry.value) == expected_alarms
            assert _responses(concurrent_kernels[index]) == expected_responses

    def test_unequal_session_lengths_all_complete(self):
        sessions = []
        kernels = []
        for index, count in enumerate((1, 4, 9)):
            kernel, session = _httpd_session(f"len-{index}", _benign_payloads(count))
            kernels.append(kernel)
            sessions.append(session)
        result = run_sessions(sessions)
        assert [entry.state for entry in result.jobs] == [SessionState.COMPLETED] * 3
        assert _total_alarms(result) == 0
        for kernel, count in zip(kernels, (1, 4, 9)):
            responses = _responses(kernel)
            assert len(responses) == count
            assert all(raw.startswith(b"HTTP/1.0 200") for raw in responses)

    def test_attack_detected_identically_under_interleaving(self):
        attack_payloads = [benign_request(), uid_overwrite_payload(0)]
        _, alone = _httpd_session("alone", attack_payloads)
        alone_result = alone.run()
        assert alone_result.attack_detected

        _, attacked = _httpd_session("attacked", attack_payloads)
        benign = [_httpd_session(f"b-{i}", _benign_payloads(3))[1] for i in range(3)]
        engine_result = run_sessions([attacked] + benign)
        assert (
            _alarm_signature(engine_result.job("attacked").value)
            == _alarm_signature(alone_result)
        )


class TestHaltPolicies:
    def _mixed_fleet(self):
        attack_kernel, attack_session = _httpd_session(
            "victim", [benign_request(), uid_overwrite_payload(0)]
        )
        benign_kernel, benign_session = _httpd_session("bystander", _benign_payloads(6))
        return attack_kernel, attack_session, benign_kernel, benign_session

    def test_per_session_halt_stops_only_the_alarming_session(self):
        attack_kernel, attack_session, benign_kernel, benign_session = self._mixed_fleet()
        result = run_sessions([attack_session, benign_session])

        victim = result.job("victim")
        bystander = result.job("bystander")
        assert victim.state is SessionState.HALTED
        assert len(victim.value.alarms) >= 1
        assert bystander.state is SessionState.COMPLETED
        assert not bystander.value.alarms
        responses = _responses(benign_kernel)
        assert len(responses) == 6
        assert all(raw.startswith(b"HTTP/1.0 200") for raw in responses)

    def test_halt_all_policy_stops_the_whole_fleet(self):
        _, attack_session, _, benign_session = self._mixed_fleet()
        result = run_sessions(
            [attack_session, benign_session], halt_policy=HaltPolicy.HALT_ALL
        )
        assert result.job("victim").state is SessionState.HALTED
        bystander = result.job("bystander")
        assert bystander.state is SessionState.HALTED
        # Halted by the policy mid-run, not by an alarm: no value is reported.
        assert bystander.truncated and bystander.value is None
        assert not benign_session.monitor.alarms


class TestOneLoop:
    """The engine and the campaign scheduler step sessions identically.

    ``MultiSessionEngine`` is the campaign scheduler with a slot per session
    and one round per turn, and both apply one end-of-turn fleet-wide halt
    rule, so the two entry points must agree on every session's outcome --
    whichever side of the alarming session a bystander sits in the turn
    order.
    """

    POLICIES = {
        "per-session": (HaltPolicy.PER_SESSION, CampaignHaltPolicy.PER_CELL),
        "fleet-wide": (HaltPolicy.HALT_ALL, CampaignHaltPolicy.HALT_CAMPAIGN),
    }

    def _fleet(self, order):
        """Fresh (kernel, session) pairs: the victim and the bystander."""
        fleet = {
            "victim": _httpd_session("victim", [benign_request(), uid_overwrite_payload(0)]),
            "bystander": _httpd_session("bystander", _benign_payloads(6)),
        }
        return [fleet[name] for name in order]

    @staticmethod
    def _observed(kernel, session, rounds, virtual_elapsed):
        return {
            "name": session.name,
            "state": session.state,
            "rounds": rounds,
            "virtual_elapsed": virtual_elapsed,
            "alarms": _alarm_signature(session.result()),
            "responses": _responses(kernel),
        }

    def _via_engine(self, order, policy):
        fleet = self._fleet(order)
        result = MultiSessionEngine([s for _, s in fleet], halt_policy=policy).run()
        observed = [
            self._observed(kernel, session, entry.rounds, entry.virtual_elapsed)
            for (kernel, session), entry in zip(fleet, result.jobs)
        ]
        return observed, result.scheduler_turns

    def _via_campaign(self, order, policy):
        fleet = self._fleet(order)
        jobs = [CampaignJob(s.name, functools.partial(_Given, s)) for _, s in fleet]
        result = CampaignScheduler(
            jobs, parallelism=len(jobs), rounds_per_turn=1, halt_policy=policy
        ).run()
        observed = [
            self._observed(kernel, session, job.rounds, job.virtual_elapsed)
            for (kernel, session), job in zip(fleet, result.jobs)
        ]
        return observed, result.scheduler_turns

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize(
        "order", [("victim", "bystander"), ("bystander", "victim")], ids="-then-".join
    )
    def test_engine_and_campaign_agree(self, policy, order):
        engine_policy, campaign_policy = self.POLICIES[policy]
        engine = self._via_engine(order, engine_policy)
        campaign = self._via_campaign(order, campaign_policy)
        assert engine == campaign

    def test_fleet_wide_halt_lands_at_the_end_of_the_turn(self):
        """Under the fleet-wide halt the bystander gets its round in the turn
        the victim halts, so its outcome does not depend on the turn order."""
        outcomes = []
        for order in (("victim", "bystander"), ("bystander", "victim")):
            observed, turns = self._via_engine(order, HaltPolicy.HALT_ALL)
            by_name = {entry["name"]: entry for entry in observed}
            victim, bystander = by_name["victim"], by_name["bystander"]
            assert victim["state"] is SessionState.HALTED and victim["alarms"]
            assert bystander["state"] is SessionState.HALTED and not bystander["alarms"]
            assert bystander["rounds"] == victim["rounds"] == turns
            outcomes.append((victim, bystander, turns))
        assert outcomes[0] == outcomes[1]


class TestMonitorStatsIsolation:
    def test_each_session_gets_fresh_stats(self):
        """Two identical sessions report identical (not accumulated) counters."""
        _, first = _httpd_session("first", _benign_payloads(2))
        _, second = _httpd_session("second", _benign_payloads(2))
        result = run_sessions([first, second])
        stats_a = result.job("first").value.monitor.stats
        stats_b = result.job("second").value.monitor.stats
        assert stats_a.lockstep_points > 0
        assert dataclasses.asdict(stats_a) == dataclasses.asdict(stats_b)

    def test_run_resets_stale_monitor_counters(self):
        """Regression: stale MonitorStats must not leak into a run's result."""
        kernel = build_standard_host()
        kernel.client_connect(HTTP_PORT, benign_request())
        session = NVariantSession(
            kernel, make_httpd_factory(transformed=True, max_requests=1), _variations()
        )
        session.monitor.stats.lockstep_points = 123_456  # stale from a previous run
        session.monitor.stats.alarms_raised = 99
        result = session.run()
        assert result.completed_normally
        assert 0 < result.monitor.stats.lockstep_points < 123_456
        assert result.monitor.stats.alarms_raised == 0

    def test_monitor_reset_clears_alarms_and_counters(self):
        _, session = _httpd_session("reset", [benign_request(), uid_overwrite_payload(0)])
        session.run()
        monitor = session.monitor
        assert monitor.attack_detected and monitor.stats.alarms_raised > 0
        monitor.reset()
        assert not monitor.attack_detected
        assert monitor.stats.lockstep_points == 0
        assert monitor.stats.alarms_raised == 0


class TestServerMultiplexing:
    def test_pipeline_longer_than_one_recv_window_is_fully_served(self):
        """Regression: a keep-alive pipeline larger than the server's recv
        window (max_request_size + 4096 bytes) must be drained, not silently
        truncated mid-request."""
        from repro.apps.clients.webbench import drive_standalone

        measurement = drive_standalone(
            WebBenchWorkload(total_requests=200, requests_per_connection=200),
            transformed=False,
        )
        assert measurement.requests_completed == 200
        assert measurement.status_counts == {200: 200}

    def test_drained_accept_queue_is_not_repolled(self):
        """Regression: once the accept queue is empty the multiplexed loop
        must stop issuing failing accept calls on every scheduling turn."""
        from repro.apps.clients.webbench import drive_standalone

        kernel = build_standard_host()
        drive_standalone(
            WebBenchWorkload(total_requests=12, requests_per_connection=3),
            transformed=False,
            multiplex=8,
            kernel=kernel,
        )
        # 4 successful accepts (one per connection) + exactly 1 failed accept
        # that closes admission.
        assert kernel.stats.syscall_breakdown["accept"] == 5

    def test_truncated_trailing_fragment_is_not_completed(self):
        """split_requests must not synthesise the header terminator for a
        truncated trailing fragment."""
        from repro.apps.httpd.http import split_requests

        pipeline = benign_request("/a.html") + b"GET /b.html HTTP/1.0"
        parts = split_requests(pipeline)
        assert parts[0] == benign_request("/a.html")
        assert parts[-1] == b"GET /b.html HTTP/1.0"


@pytest.mark.slow
class TestCampaignSchedulerStress:
    """Fairness and fleet-halt behaviour of the campaign worker pool at scale."""

    def _benign_job(self, index, requests=3):
        from repro.engine.campaign import CampaignJob

        def prepare():
            _, session = _httpd_session(f"stress-{index}", _benign_payloads(requests))
            return _Given(session)

        return CampaignJob(f"stress-{index}", prepare)

    def _attack_job(self, index):
        from repro.engine.campaign import CampaignJob

        def prepare():
            _, session = _httpd_session(
                f"attack-{index}", [benign_request(), uid_overwrite_payload(0)]
            )
            return _Given(session)

        return CampaignJob(f"attack-{index}", prepare)

    def test_32_interleaved_campaign_sessions_complete_without_starvation(self):
        from repro.engine.campaign import CampaignScheduler

        jobs = [self._benign_job(i, requests=1 + i % 4) for i in range(32)]
        result = CampaignScheduler(jobs, parallelism=32, rounds_per_turn=2).run()

        assert len(result.completed_jobs) == 32 and not result.skipped_jobs
        assert all(job.value is SessionState.COMPLETED for job in result.jobs)
        assert result.max_live_sessions == 32
        # Fairness: round-robin never skips a live session for a whole turn,
        # so no session's round count can lag a sibling admitted at the same
        # time by more than one rounds_per_turn batch.
        assert result.max_wait_turns == 0
        # Scheduler efficiency: turns are bounded by the longest job's rounds
        # divided by the batch size (plus the final bookkeeping turn).
        longest = max(job.rounds for job in result.jobs)
        assert result.scheduler_turns <= (longest + 1) // 2 + 2

    def test_worker_pool_drains_a_deep_backlog(self):
        from repro.engine.campaign import CampaignScheduler

        jobs = [self._benign_job(i) for i in range(40)]
        result = CampaignScheduler(jobs, parallelism=8).run()
        assert len(result.completed_jobs) == 40
        assert result.max_live_sessions == 8
        assert result.max_wait_turns == 0
        # Eight workers sharing identical jobs land close to an 8x win.
        assert result.speedup() > 6.0

    def test_fleet_wide_halt_stops_stragglers_and_skips_backlog(self):
        from repro.engine.campaign import CampaignScheduler
        from repro.engine.policy import CampaignHaltPolicy

        # One attack session among long-running benign siblings, plus a
        # backlog that must never start once the campaign halts.
        jobs = (
            [self._benign_job(i, requests=9) for i in range(6)]
            + [self._attack_job(0)]
            + [self._benign_job(100 + i, requests=9) for i in range(8)]
        )
        result = CampaignScheduler(
            jobs,
            parallelism=8,
            rounds_per_turn=1,
            halt_policy=CampaignHaltPolicy.HALT_CAMPAIGN,
        ).run()

        states = [job.state for job in result.jobs if not job.skipped]
        assert SessionState.HALTED in states
        # Stragglers live at the halt are stopped, not run to completion: the
        # long benign sessions admitted alongside the attack must be halted,
        # marked truncated, and carry no fabricated value.
        siblings = [job for job in result.jobs[:6] if not job.skipped]
        assert siblings
        assert all(job.state is SessionState.HALTED for job in siblings)
        assert all(job.truncated and job.value is None for job in siblings)
        # The attack session itself halted on its own alarm: a real outcome.
        attack_job = next(job for job in result.jobs if job.name == "attack-0")
        assert not attack_job.truncated
        assert attack_job.value is SessionState.HALTED
        # The backlog past the worker pool is skipped entirely.
        assert result.skipped_jobs
        assert all(job.state is None for job in result.skipped_jobs)


class TestEngineMechanics:
    def test_stepping_matches_single_shot_run(self):
        _, stepped = _httpd_session("stepped", _benign_payloads(2))
        while not stepped.done:
            stepped.step()
        _, oneshot = _httpd_session("oneshot", _benign_payloads(2))
        oneshot_result = oneshot.run()
        assert stepped.result().lockstep_rounds == oneshot_result.lockstep_rounds
        assert stepped.state is SessionState.COMPLETED

    def test_virtual_elapsed_is_max_over_sessions(self):
        sessions = [_httpd_session(f"v-{i}", _benign_payloads(i + 1))[1] for i in range(3)]
        result = run_sessions(sessions)
        assert result.virtual_elapsed == max(s.virtual_elapsed for s in result.jobs)
        assert result.virtual_elapsed_sequential == sum(
            s.virtual_elapsed for s in result.jobs
        )
        assert result.virtual_elapsed < result.virtual_elapsed_sequential

    def test_rerunning_a_finished_session_raises(self):
        """A terminal session's programs are consumed; a repeated run() must
        raise rather than silently return the stale result."""
        _, session = _httpd_session("once", _benign_payloads(1))
        session.run()
        with pytest.raises(RuntimeError, match="already completed"):
            session.run()

    def test_sessions_sharing_a_kernel_meter_only_their_own_ticks(self):
        """virtual_elapsed counts ticks consumed inside the session's own
        rounds, so co-scheduled sessions on one kernel never double-count."""

        def factory(context):
            def program():
                for _ in range(5):
                    yield context.libc.getpid()
                yield context.libc.exit(0)

            return program()

        kernel = build_standard_host()
        clock_before = kernel.clock
        sessions = [
            NVariantSession(kernel, factory, [], name=f"shared-{i}") for i in range(2)
        ]
        result = run_sessions(sessions)
        consumed = kernel.clock - clock_before
        assert result.virtual_elapsed_sequential == consumed
        assert all(s.virtual_elapsed > 0 for s in result.jobs)

    def test_duplicate_session_names_rejected(self):
        _, a = _httpd_session("dup", _benign_payloads(1))
        _, b = _httpd_session("dup", _benign_payloads(1))
        engine = MultiSessionEngine([a])
        with pytest.raises(ValueError):
            engine.add_session(b)

    def test_finished_session_is_reported_but_never_stepped(self):
        """A session already halted when the engine runs costs no turn and
        does not trigger the fleet-wide halt."""
        _, halted = _httpd_session("halted", [benign_request(), uid_overwrite_payload(0)])
        halted.run()
        _, fresh = _httpd_session("fresh", _benign_payloads(1))
        result = run_sessions([halted, fresh], halt_policy=HaltPolicy.HALT_ALL)
        assert result.job("halted").state is SessionState.HALTED
        assert result.job("halted").rounds == halted.rounds
        assert result.job("fresh").state is SessionState.COMPLETED
        assert result.scheduler_turns == result.job("fresh").rounds

    def test_empty_engine_returns_empty_result(self):
        result = MultiSessionEngine().run()
        assert result.jobs == [] and result.virtual_elapsed == 0

    def test_drive_engine_scales_throughput(self):
        from repro.api.spec import ADDRESS_UID_SPEC, FleetSpec, WorkloadSpec

        single = drive_engine(
            FleetSpec(system=ADDRESS_UID_SPEC, num_sessions=1,
                      workload=WorkloadSpec(total_requests=6))
        )
        fleet = drive_engine(
            FleetSpec(system=ADDRESS_UID_SPEC, num_sessions=4,
                      workload=WorkloadSpec(total_requests=24))
        )
        assert single.completed_ok and fleet.completed_ok
        assert fleet.speedup() > 3.0


def _looping_factory(calls):
    """Each variant makes *calls* getpid calls (forever when None), then exits."""

    def factory(context):
        def program():
            made = 0
            while calls is None or made < calls:
                yield context.libc.getpid()
                made += 1
            yield context.libc.exit(0)

        return program()

    return factory


class TestStepGuards:
    def test_stepping_past_max_rounds_raises_a_typed_error(self):
        session = NVariantSession(
            build_standard_host(), _looping_factory(None), [], max_rounds=3
        )
        for _ in range(3):
            assert session.step() is SessionState.RUNNING
        with pytest.raises(RoundLimitError, match="exceeded 3 rounds") as raised:
            session.step()
        assert isinstance(raised.value, RuntimeError)
        assert session.rounds == 3
        assert session.state is SessionState.RUNNING

    def test_scheduling_past_the_turn_limit_raises(self, monkeypatch):
        monkeypatch.setattr(scheduler, "MAX_TURNS", 3)
        session = NVariantSession(build_standard_host(), _looping_factory(None), [])
        with pytest.raises(RuntimeError, match="exceeded 3 scheduling turns"):
            MultiSessionEngine([session]).run()
        assert session.rounds == 3

    @pytest.mark.parametrize("halt", [False, True])
    def test_stepping_a_terminal_session_changes_nothing(self, halt):
        payloads = [benign_request(), uid_overwrite_payload(0)] if halt else _benign_payloads(1)
        _, session = _httpd_session("terminal", payloads)
        result = session.run()
        expected = SessionState.HALTED if halt else SessionState.COMPLETED
        assert session.state is expected and bool(result.alarms) is halt
        rounds, elapsed = session.rounds, session.virtual_elapsed
        stats = dataclasses.asdict(session.monitor.stats)
        for _ in range(3):
            assert session.step() is expected
        assert session.rounds == rounds
        assert session.virtual_elapsed == elapsed
        assert dataclasses.asdict(session.monitor.stats) == stats

    def test_sessions_sharing_a_kernel_count_only_their_own_ticks(self):
        kernel = build_standard_host()
        sessions = [
            NVariantSession(kernel, _looping_factory(calls), [], name=f"shared-{calls}")
            for calls in (2, 7)
        ]
        own = {session.name: 0 for session in sessions}
        while not all(session.done for session in sessions):
            for session in sessions:
                before = kernel.clock
                session.step()
                own[session.name] += kernel.clock - before
        elapsed = {session.name: session.virtual_elapsed for session in sessions}
        assert elapsed == own
        assert 0 < elapsed["shared-2"] < elapsed["shared-7"]
