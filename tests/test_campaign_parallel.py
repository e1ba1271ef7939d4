"""Engine-parallel campaigns: serial parity, scheduling, deprecation shims.

The load-bearing contract of PR 3 is *parity*: ``run_campaign`` routed
through the engine's worker-pool scheduler must produce byte-identical
per-cell outcomes to the serial path for every worker count, because each
cell owns a private simulated host.  The deterministic tests pin that for a
fixed matrix; the hypothesis property test (marked ``slow``, run by
``make check-parallel``) samples random small spec/attack matrices.
"""

import dataclasses
import functools
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.campaign import prepare_attack, run_attack, run_campaign
from repro.api.spec import (
    ADDRESS_PARTITIONING_SPEC,
    SINGLE_PROCESS_SPEC,
    SystemSpec,
    UID_DIVERSITY_SPEC,
    UID_ORBIT_3_SPEC,
    uid_orbit_spec,
)
from repro.attacks.memory_attacks import standard_address_attacks
from repro.attacks.outcomes import OutcomeKind
from repro.attacks.payloads import uid_overwrite_payload
from repro.attacks.uid_attacks import UIDAttack, standard_uid_attacks
from repro.engine.campaign import CampaignJob, CampaignScheduler
from repro.engine.policy import CampaignHaltPolicy


def _serial_outcomes(specs, attacks):
    """The reference serial path: one prepared cell at a time, in order."""
    return [run_attack(attack, spec) for attack in attacks for spec in specs]


def _outcome_bytes(outcomes):
    """Byte-level rendering of a campaign's outcomes (order-sensitive)."""
    return json.dumps(
        [dataclasses.asdict(o) | {"kind": o.kind.value} for o in outcomes]
    ).encode()


class TestSerialParity:
    """Parallel and serial campaigns agree cell-for-cell."""

    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_standard_matrix_is_parallelism_invariant(self, parallelism):
        attacks = [
            next(a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite"),
            next(a for a in standard_uid_attacks() if a.name == "high-bit-flip"),
            standard_address_attacks()[0],
        ]
        specs = (SINGLE_PROCESS_SPEC, UID_DIVERSITY_SPEC)
        expected = _serial_outcomes(specs, attacks)
        report = run_campaign(specs, attacks, workers=parallelism)
        assert report.outcomes == expected
        assert _outcome_bytes(report.outcomes) == _outcome_bytes(expected)

    def test_outcomes_preserve_submission_order(self):
        """Completion order varies with parallelism; report order must not."""
        attacks = standard_uid_attacks()[:3]
        specs = (UID_DIVERSITY_SPEC, SINGLE_PROCESS_SPEC)
        report = run_campaign(specs, attacks, workers=4)
        labels = [(o.attack, o.configuration) for o in report.outcomes]
        assert labels == [(a.name, s.name) for a in attacks for s in specs]

    def test_orbit_runs_through_the_full_campaign_path(self):
        """An N=3 registry variation sweeps through the scheduler end to end."""
        attack = next(
            a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite"
        )
        report = run_campaign(
            (SINGLE_PROCESS_SPEC, UID_ORBIT_3_SPEC), [attack], workers=2
        )
        row = report.matrix()[attack.name]
        assert row["single-process"] == "undetected-compromise"
        assert row["3-variant-uid-orbit"] == "detected"

    def test_rounds_per_turn_does_not_change_outcomes(self):
        attacks = standard_uid_attacks()[:2]
        specs = (UID_DIVERSITY_SPEC,)
        expected = _serial_outcomes(specs, attacks)
        for rounds_per_turn in (1, 3, 64):
            report = run_campaign(
                specs, attacks, workers=2, rounds_per_turn=rounds_per_turn
            )
            assert report.outcomes == expected


@pytest.mark.slow
class TestSerialParityProperty:
    """Hypothesis: parity holds for random small spec/attack matrices."""

    SPEC_POOL = (
        SINGLE_PROCESS_SPEC,
        ADDRESS_PARTITIONING_SPEC,
        UID_DIVERSITY_SPEC,
        UID_ORBIT_3_SPEC,
    )

    @given(
        attack_indices=st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True),
        spec_indices=st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
    )
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_random_matrix_parity(self, attack_indices, spec_indices):
        pool = [*standard_uid_attacks(), *standard_address_attacks()]
        attacks = [pool[i] for i in attack_indices]
        specs = [self.SPEC_POOL[i] for i in spec_indices]
        expected = _serial_outcomes(specs, attacks)
        for parallelism in (1, 2, 8):
            report = run_campaign(specs, attacks, workers=parallelism)
            assert _outcome_bytes(report.outcomes) == _outcome_bytes(expected), (
                parallelism,
                [o.describe() for o in report.outcomes],
            )


class TestBackendEdgeCases:
    """Scheduler edge cases every backend must honor identically.

    Each case runs against both the virtual-time scheduler and the
    multi-process tier: the backends may differ in how work reaches a
    worker, never in what the campaign reports.
    """

    ATTACKS = staticmethod(
        lambda: [
            next(a for a in standard_uid_attacks() if a.name == "low-bit-flip"),
            next(a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite"),
        ]
    )

    @pytest.mark.parametrize("backend", ["virtual", "process"])
    def test_more_workers_than_jobs(self, backend):
        """Requested parallelism survives into the accounting; spare slots idle."""
        attacks = self.ATTACKS()[:1]
        specs = (UID_DIVERSITY_SPEC, SINGLE_PROCESS_SPEC)
        expected = _serial_outcomes(specs, attacks)
        report = run_campaign(specs, attacks, backend=backend, workers=8)
        assert _outcome_bytes(report.outcomes) == _outcome_bytes(expected)
        execution = report.execution
        assert execution.parallelism == 8
        assert len(execution.worker_elapsed) == 8
        assert len(execution.completed_jobs) == len(expected)

    @pytest.mark.parametrize("backend", ["virtual", "process"])
    def test_empty_job_list(self, backend):
        """An empty cross product completes without forking or scheduling."""
        report = run_campaign((), self.ATTACKS(), backend=backend, workers=4)
        assert report.outcomes == []
        execution = report.execution
        assert execution.jobs == []
        assert execution.backend == backend
        assert execution.virtual_elapsed == 0
        assert math.isnan(execution.speedup())

    @pytest.mark.parametrize("backend", ["virtual", "process"])
    def test_rounds_per_turn_exceeding_session_length(self, backend):
        """A turn batch far beyond any session's lifetime changes nothing."""
        attacks = self.ATTACKS()
        specs = (UID_DIVERSITY_SPEC,)
        expected = _serial_outcomes(specs, attacks)
        report = run_campaign(
            specs, attacks, backend=backend, workers=2, rounds_per_turn=100_000
        )
        assert _outcome_bytes(report.outcomes) == _outcome_bytes(expected)

    @pytest.mark.parametrize("backend", ["virtual", "process"])
    def test_halt_campaign_truncation_ordering(self, backend):
        """At one worker, HALT_CAMPAIGN semantics are fully deterministic.

        The first cell is detected (halts), so every later cell must be
        skipped -- never truncated, never finalized -- in submission order,
        on both backends.
        """
        detected = next(
            a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite"
        )
        benign = next(a for a in standard_uid_attacks() if a.name == "low-bit-flip")
        specs = (UID_DIVERSITY_SPEC,)
        report = run_campaign(
            specs,
            [detected, benign, benign],
            backend=backend,
            workers=1,
            halt="halt-campaign",
        )
        execution = report.execution
        assert [job.skipped for job in execution.jobs] == [False, True, True]
        assert execution.jobs[0].value.kind is OutcomeKind.DETECTED
        assert all(job.value is None for job in execution.skipped_jobs)
        assert execution.truncated_jobs == []

    def test_custom_attack_runs_on_the_process_backend(self):
        """Attacks cross the process boundary as pickled objects, so one
        outside the standard library runs there as it does in process."""
        custom = UIDAttack(
            name="custom-uid-7-overwrite",
            description="not a library attack",
            payload=uid_overwrite_payload(7),
        )
        specs = (SINGLE_PROCESS_SPEC, UID_DIVERSITY_SPEC)
        expected = _serial_outcomes(specs, [custom])
        report = run_campaign(specs, [custom], backend="process", workers=2)
        assert _outcome_bytes(report.outcomes) == _outcome_bytes(expected)


@pytest.mark.slow
class TestCrossBackendParity:
    """The process tier reproduces the virtual tier byte-for-byte.

    Run by ``make check-procs``: the full worker-count x backend sweep is
    too slow for the default suite (each process cell forks real workers).
    """

    @pytest.mark.parametrize("backend", ["virtual", "process"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_standard_matrix_parity(self, backend, workers):
        attacks = [
            next(a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite"),
            next(a for a in standard_uid_attacks() if a.name == "high-bit-flip"),
            standard_address_attacks()[0],
        ]
        specs = (SINGLE_PROCESS_SPEC, UID_DIVERSITY_SPEC, UID_ORBIT_3_SPEC)
        expected = _serial_outcomes(specs, attacks)
        report = run_campaign(specs, attacks, backend=backend, workers=workers)
        assert _outcome_bytes(report.outcomes) == _outcome_bytes(expected), (
            backend,
            workers,
        )
        assert report.execution.backend == backend
        assert report.execution.parallelism == workers

    def test_detection_experiment_backend_parity(self):
        """The full detection matrix agrees across backends."""
        from repro.analysis.experiments import detection

        virtual = detection.run(workers=4)
        process = detection.run(workers=4, backend="process")
        assert virtual.claim_results() == process.claim_results()
        assert process.to_report().failed_claims == []
        assert virtual.uid_report.matrix() == process.uid_report.matrix()
        assert virtual.address_report.matrix() == process.address_report.matrix()


class TestCampaignScheduler:
    """Scheduler mechanics independent of the attack library."""

    def _cell_jobs(self, count, attack=None):
        attack = attack or next(
            a for a in standard_uid_attacks() if a.name == "low-bit-flip"
        )
        prepare = functools.partial(prepare_attack, attack, UID_DIVERSITY_SPEC)
        return [CampaignJob(f"{index}-{attack.name}", prepare) for index in range(count)]

    def test_empty_campaign(self):
        result = CampaignScheduler([]).run()
        assert result.jobs == [] and result.scheduler_turns == 0
        # No jobs means nothing was measured: the speedup is nan (unmeasured),
        # not 0.0 (measured, infinitely slow).
        assert result.virtual_elapsed == 0 and math.isnan(result.speedup())

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            CampaignScheduler([], parallelism=0)
        with pytest.raises(ValueError):
            CampaignScheduler([], rounds_per_turn=0)
        with pytest.raises(ValueError):
            run_campaign((UID_DIVERSITY_SPEC,), [], workers=0)

    def test_worker_accounting_serial_equals_sequential(self):
        jobs = self._cell_jobs(3)
        result = CampaignScheduler(jobs, parallelism=1).run()
        assert result.worker_elapsed == [result.virtual_elapsed_sequential]
        assert result.speedup() == 1.0
        assert result.max_live_sessions == 1

    def test_worker_pool_bounds_live_sessions_and_speeds_up(self):
        jobs = self._cell_jobs(6)
        result = CampaignScheduler(jobs, parallelism=3).run()
        assert result.max_live_sessions == 3
        assert result.max_wait_turns == 0
        assert len(result.completed_jobs) == 6
        assert result.speedup() > 2.0

    def test_halt_campaign_skips_pending_jobs(self):
        detected = next(
            a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite"
        )
        jobs = self._cell_jobs(1, attack=detected) + self._cell_jobs(4)
        result = CampaignScheduler(
            jobs, parallelism=1, halt_policy=CampaignHaltPolicy.HALT_CAMPAIGN
        ).run()
        assert len(result.jobs) == 5
        # The first job halts (the attack is detected) and, serially, nothing
        # else ever starts.
        assert result.jobs[0].value.kind is OutcomeKind.DETECTED
        assert [job.skipped for job in result.jobs] == [False, True, True, True, True]
        assert all(job.value is None for job in result.skipped_jobs)

    def test_halt_campaign_never_fabricates_outcomes(self):
        """A straggler stopped by the campaign halt must not surface a cell.

        Regression: a force-halted session's finalizer used to classify its
        partial state (e.g. "no alarm" -> no-effect) as if the cell had run;
        now every reported outcome is byte-identical to its serial
        counterpart and truncated cells are excluded entirely.
        """
        attack = next(
            a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite"
        )
        specs = (UID_DIVERSITY_SPEC, SINGLE_PROCESS_SPEC)
        serial = {
            (o.attack, o.configuration): o for o in _serial_outcomes(specs, [attack])
        }
        report = run_campaign(
            specs,
            [attack],
            workers=2,
            rounds_per_turn=1,
            halt="halt-campaign",
        )
        for outcome in report.outcomes:
            assert outcome == serial[(outcome.attack, outcome.configuration)]
        execution = report.execution
        assert len(report.outcomes) + len(execution.truncated_jobs) + len(
            execution.skipped_jobs
        ) == len(serial)
        # The detected cell halts first, so the longer single-process cell is
        # truncated mid-run rather than misreported.
        assert len(execution.truncated_jobs) == 1
        assert all(job.value is None for job in execution.truncated_jobs)

    def test_report_omits_skipped_cells_but_keeps_execution_record(self):
        detected = next(
            a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite"
        )
        report = run_campaign(
            (UID_DIVERSITY_SPEC, SINGLE_PROCESS_SPEC),
            [detected],
            workers=1,
            halt="halt-campaign",
        )
        assert len(report.outcomes) == 1
        assert report.outcomes[0].kind is OutcomeKind.DETECTED
        assert len(report.execution.skipped_jobs) == 1


class TestOrbitVariation:
    """The N-way UID orbit: masks, registry resolution, builder injection."""

    def test_default_masks_are_pairwise_distinct_31_bit(self):
        from repro.memory.partition import default_uid_masks

        for count in (2, 3, 8, 16):
            masks = default_uid_masks(count)
            assert len(masks) == count == len(set(masks))
            assert masks[0] == 0
            assert all(0 <= mask <= 0x7FFFFFFF for mask in masks)

    def test_masks_need_at_least_two_variants(self):
        from repro.memory.partition import default_uid_masks

        with pytest.raises(ValueError):
            default_uid_masks(1)

    def test_injected_value_decodes_pairwise_differently(self):
        from repro.api.registry import registry

        variation = registry.create("uid-orbit", {"num_variants": 4})
        injected = 0  # the attacker wants root
        decoded = [variation.decode(i, injected) for i in range(4)]
        assert len(set(decoded)) == 4

    def test_builders_forward_spec_num_variants(self):
        from repro.api.builders import build_variations

        spec = uid_orbit_spec(5)
        (variation,) = build_variations(spec)
        assert variation.num_variants == 5

    def test_spec_params_can_pin_num_variants(self):
        from repro.api.builders import build_variations
        from repro.api.registry import VariationParameterError

        spec = SystemSpec(
            name="mismatch",
            num_variants=3,
            variations=({"name": "uid", "params": {"num_variants": 2}},),
        )
        # The pinned factory count wins at creation; the stack then rejects
        # the mismatch against the system's variant count.
        with pytest.raises(ValueError, match="system wants 3"):
            from repro.api.builders import build_session
            from repro.kernel.host import build_standard_host

            build_session(spec, build_standard_host(), lambda context: iter(()))

        # And an impossible count surfaces as a typed parameter error.
        bad = SystemSpec(name="bad", num_variants=3, variations=("uid",))
        with pytest.raises(VariationParameterError):
            build_variations(bad)

    def test_orbit_round_trips_through_json_scenario(self):
        spec = SystemSpec.from_json(UID_ORBIT_3_SPEC.to_json())
        assert spec == UID_ORBIT_3_SPEC
        assert spec.num_variants == 3


class TestCampaignCLI:
    def _write_scenario(self, tmp_path, data):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def test_campaign_scenario_end_to_end(self, tmp_path, capsys):
        from repro.api.cli import main as cli_main

        path = self._write_scenario(
            tmp_path,
            {
                "scenario": "campaign",
                "systems": [
                    SINGLE_PROCESS_SPEC.to_dict(),
                    UID_ORBIT_3_SPEC.to_dict(),
                ],
                "attacks": ["full-word-root-overwrite", "partial-1-byte-overwrite"],
                "workers": 4,
                "output": "json",
            },
        )
        assert cli_main(["run", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        matrix = payload["sections"][0]
        column = matrix["headers"].index("3-variant-uid-orbit")
        row = matrix["rows"][0]
        assert row[0] == "full-word-root-overwrite"
        assert row[column] == "detected"
        telemetry = payload["telemetry"]
        assert telemetry["campaign_parallelism"] == 4
        assert telemetry["campaign_cells"] == 4
        assert telemetry["campaign_speedup"] > 1.0

    def test_workers_flag_overrides_scenario(self, tmp_path, capsys):
        from repro.api.cli import main as cli_main

        path = self._write_scenario(
            tmp_path,
            {
                "scenario": "campaign",
                "systems": [SINGLE_PROCESS_SPEC.to_dict()],
                "attacks": ["low-bit-flip"],
                "workers": 1,
                "output": "json",
            },
        )
        assert cli_main(["run", str(path), "--workers", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry"]["campaign_parallelism"] == 3

    def test_workers_flag_rejected_for_throughput(self, tmp_path, capsys):
        from repro.api.cli import main as cli_main

        path = self._write_scenario(
            tmp_path,
            {
                "scenario": "throughput",
                "fleet": {"system": {"name": "s"}, "workload": {"total_requests": 2}},
            },
        )
        assert cli_main(["run", str(path), "--workers", "2"]) == 2
        assert "unknown parameters: workers" in capsys.readouterr().err

    def test_parallelism_key_is_gone(self, tmp_path, capsys):
        from repro.api.cli import main as cli_main

        path = self._write_scenario(tmp_path, {"scenario": "campaign", "parallelism": 2})
        assert cli_main(["run", str(path)]) == 2
        assert "unknown parameters: parallelism" in capsys.readouterr().err

    def test_bad_halt_policy_is_a_clean_error(self, tmp_path, capsys):
        from repro.api.cli import main as cli_main

        path = self._write_scenario(
            tmp_path, {"scenario": "campaign", "halt": "sometimes"}
        )
        assert cli_main(["run", str(path)]) == 2
        assert "halt must be one of" in capsys.readouterr().err

    def test_campaign_example_scenario_validates(self):
        from pathlib import Path

        from repro.api.builders import build_variations
        from repro.api.cli import load_scenario

        scenarios = Path(__file__).resolve().parents[1] / "examples" / "scenarios"
        data = load_scenario(scenarios / "campaign.json")
        assert data["scenario"] == "campaign"
        specs = [SystemSpec.from_dict(entry) for entry in data["systems"]]
        assert any(spec.num_variants >= 3 for spec in specs)
        for spec in specs:
            build_variations(spec)


class TestExperimentParallelism:
    def test_detection_experiment_matrix_is_parallelism_invariant(self):
        """The migrated experiment produces the same claims at any worker count."""
        from repro.analysis.experiments import detection

        serial = detection.run(workers=1)
        parallel = detection.run(workers=8)
        assert serial.claim_results() == parallel.claim_results()
        assert parallel.to_report().failed_claims == []
        assert serial.uid_report.matrix() == parallel.uid_report.matrix()
