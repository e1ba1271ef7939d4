"""Tests for the brute-force attacker subsystem and its CLI plumbing.

Covers the probe primitive's detection semantics (partial hit alarms,
unanimous miss stays silent, unanimous success is impossible for N >= 2),
the attacker strategies' planning, trial reproducibility across both
campaign backends, and the CLI satellites this PR adds: ``--seed`` on
``run``/``experiment``, ``experiments --json``, and worker-side failures
surfacing as clean non-zero exits instead of master-side tracebacks.
"""

import json
import random

import pytest

from repro.api.cli import main as cli_main
from repro.api.seeding import derive_seed
from repro.engine.session import SessionState
from repro.memory.partition import KeyedRegionScheme, VALUE_BITS
from repro.security import (
    ExhaustiveSweepAttacker,
    PartialKnowledgeAttacker,
    ProbeOutcome,
    RandomProbingAttacker,
    SECRET_NOMINAL_BASE,
    expected_exhaustive_probes,
    plan_trial,
    prepare_probe_cell,
    run_probe_batch,
)
from repro.security.attacker import AttackTrace, BruteForceAttacker


class TestStrategyPlanning:
    def test_exhaustive_sweep_covers_the_space_in_order(self):
        plan = ExhaustiveSweepAttacker().plan(
            key_bits=4, num_variants=2, rng=random.Random(0)
        )
        assert len(plan) == 16
        assert plan == sorted(plan)
        shift = VALUE_BITS - 4
        assert plan[0] == SECRET_NOMINAL_BASE
        assert plan[1] == (1 << shift) + SECRET_NOMINAL_BASE

    def test_random_probing_is_rng_driven(self):
        a = RandomProbingAttacker().plan(key_bits=5, num_variants=2, rng=random.Random(1))
        b = RandomProbingAttacker().plan(key_bits=5, num_variants=2, rng=random.Random(1))
        c = RandomProbingAttacker().plan(key_bits=5, num_variants=2, rng=random.Random(2))
        assert a == b
        assert a != c
        assert len(a) == 2 * 32  # default budget: twice the space

    def test_partial_knowledge_needs_the_secret(self):
        with pytest.raises(ValueError, match="secret"):
            PartialKnowledgeAttacker().plan(
                key_bits=5, num_variants=2, rng=random.Random(0)
            )

    def test_partial_knowledge_shrinks_the_space(self):
        secret = (12, 5)  # slices only (no slide offsets)
        plan = PartialKnowledgeAttacker(known_bits=2).plan(
            key_bits=5, num_variants=2, rng=random.Random(0), secret=secret
        )
        shift = VALUE_BITS - 5
        probed_slices = {(address - SECRET_NOMINAL_BASE) >> shift for address in plan}
        # Only slices matching a leaked low-2-bit pattern survive the prior.
        assert probed_slices == {s for s in range(32) if s & 3 in {12 & 3, 5 & 3}}
        assert len(plan) < 32
        assert all(s in probed_slices for s in secret)

    def test_strategies_satisfy_the_protocol(self):
        for strategy in (
            ExhaustiveSweepAttacker(),
            RandomProbingAttacker(),
            PartialKnowledgeAttacker(),
        ):
            assert isinstance(strategy, BruteForceAttacker)

    def test_expected_exhaustive_probes_analytics(self):
        # With every slice occupied the first probe always alarms.
        assert expected_exhaustive_probes(1, 2) == 1.0
        # E[min of N-subset of {0..M-1}] = (M - N) / (N + 1), plus one probe.
        assert expected_exhaustive_probes(4, 2) == pytest.approx(14 / 3 + 1)
        assert expected_exhaustive_probes(6, 3) == pytest.approx(61 / 4 + 1)


class TestProbeMechanics:
    def test_exhaustive_sweep_alarms_at_the_lowest_occupied_slice(self):
        plan = plan_trial(ExhaustiveSweepAttacker(), num_variants=2, key_bits=4, seed=77)
        key_seed = derive_seed(77, "key", "exhaustive-sweep", 2, 4, False)
        slices = KeyedRegionScheme(2, key_bits=4, seed=key_seed).slices
        cell = prepare_probe_cell(
            plan.spec, plan.addresses, strategy=plan.strategy, key_bits=plan.key_bits
        )
        session = cell.start()
        session.run()
        outcome = ProbeOutcome.from_dict(cell.finish(session))
        assert session.state is SessionState.HALTED
        assert outcome.alarmed
        assert outcome.probes_to_first_alarm == min(slices) + 1
        assert outcome.probes_to_success is None
        assert "divergence" in outcome.detail

    def test_unanimous_misses_stay_silent(self):
        plan = plan_trial(ExhaustiveSweepAttacker(), num_variants=2, key_bits=4, seed=77)
        key_seed = derive_seed(77, "key", "exhaustive-sweep", 2, 4, False)
        slices = KeyedRegionScheme(2, key_bits=4, seed=key_seed).slices
        # Probe only slices nobody occupies: every variant misses every time.
        misses = [
            address
            for index, address in enumerate(plan.addresses)
            if index not in slices
        ][:5]
        cell = prepare_probe_cell(plan.spec, misses, strategy="silent")
        session = cell.start()
        session.run()
        outcome = ProbeOutcome.from_dict(cell.finish(session))
        assert session.state is SessionState.COMPLETED
        assert not outcome.alarmed
        assert outcome.probes_to_success is None
        # Two rounds per probe (peek + cond_chk) plus the retire round.
        assert session.rounds == 2 * len(misses) + 1


def run_trials(strategy, *, num_variants, key_bits, trials, seed, slide=False):
    """*trials* independent keyed games, planned and run as the entropy experiment does."""
    plans = [
        plan_trial(
            strategy,
            num_variants=num_variants,
            key_bits=key_bits,
            seed=derive_seed(seed, "trial", t),
            slide=slide,
        )
        for t in range(trials)
    ]
    return AttackTrace(
        strategy=strategy.name,
        num_variants=num_variants,
        key_bits=key_bits,
        slide=slide,
        seed=seed,
        outcomes=run_probe_batch(plans),
    )


class TestTrials:
    def test_trials_are_reproducible(self):
        a = run_trials(ExhaustiveSweepAttacker(), num_variants=2, key_bits=4, trials=3, seed=11)
        b = run_trials(ExhaustiveSweepAttacker(), num_variants=2, key_bits=4, trials=3, seed=11)
        assert a.outcomes == b.outcomes
        assert a.alarm_rate == 1.0
        assert a.successes == 0

    def test_different_seeds_draw_different_games(self):
        a = run_trials(ExhaustiveSweepAttacker(), num_variants=2, key_bits=6, trials=4, seed=1)
        b = run_trials(ExhaustiveSweepAttacker(), num_variants=2, key_bits=6, trials=4, seed=2)
        assert a.outcomes != b.outcomes

    def test_backends_agree_byte_for_byte(self):
        plans = [
            plan_trial(
                ExhaustiveSweepAttacker(),
                num_variants=3,
                key_bits=4,
                seed=derive_seed(123, "trial", t),
            )
            for t in range(3)
        ]
        virtual = run_probe_batch(plans, backend="virtual", workers=2)
        process = run_probe_batch(plans, backend="process", workers=2)
        assert [o.to_dict() for o in virtual] == [o.to_dict() for o in process]

    def test_partial_knowledge_beats_the_blind_sweep(self):
        kwargs = dict(num_variants=2, key_bits=6, trials=6, seed=99)
        sweep = run_trials(ExhaustiveSweepAttacker(), **kwargs)
        leak = run_trials(PartialKnowledgeAttacker(known_bits=2), **kwargs)
        assert leak.mean_probes_to_first_alarm < sweep.mean_probes_to_first_alarm

    def test_sliding_scheme_also_plays(self):
        trace = run_trials(
            PartialKnowledgeAttacker(known_bits=2),
            num_variants=2,
            key_bits=5,
            trials=3,
            seed=7,
            slide=True,
        )
        assert trace.trials == 3
        assert trace.successes == 0
        assert trace.alarm_rate == 1.0

    def test_bad_backend_is_an_error(self):
        with pytest.raises(ValueError, match="backend"):
            run_probe_batch([], backend="quantum")


class TestCLISatellites:
    def _write(self, tmp_path, data):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    KEYED_SCENARIO = {
        "scenario": "campaign",
        "systems": [
            {
                "name": "keyed-fleet",
                "num_variants": 2,
                "variations": [{"name": "address-keyed", "params": {"key_bits": 6}}],
                "transformed": False,
            }
        ],
        "attacks": ["absolute-address-injection"],
        "output": "json",
    }

    def test_seeded_run_is_identical_across_backends(self, tmp_path, capsys):
        path = self._write(tmp_path, self.KEYED_SCENARIO)
        assert cli_main(["run", str(path), "--seed", "42"]) == 0
        virtual = json.loads(capsys.readouterr().out)
        assert (
            cli_main(["run", str(path), "--seed", "42", "--backend", "process",
                      "--workers", "2"]) == 0
        )
        process = json.loads(capsys.readouterr().out)
        assert virtual["sections"] == process["sections"]
        assert (
            virtual["telemetry"]["detection_rates"] == process["telemetry"]["detection_rates"]
        )

    def test_seed_rejected_where_meaningless(self, tmp_path, capsys):
        path = self._write(
            tmp_path, {"scenario": "throughput", "fleet": {"system": {"name": "s"}}}
        )
        assert cli_main(["run", str(path), "--seed", "1"]) == 2
        assert "unknown parameters: seed" in capsys.readouterr().err

    def test_experiment_seed_flag_is_set_sugar(self, capsys):
        assert (
            cli_main(
                ["experiment", "entropy", "--smoke", "--seed", "31337", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["seed"] == 31337
        assert payload["ok"] is True

    def test_experiments_json_listing(self, capsys):
        assert cli_main(["experiments", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in payload]
        assert names == sorted(names)
        entropy = next(entry for entry in payload if entry["name"] == "entropy")
        declared = {p["name"]: p for p in entropy["parameters"]}
        assert declared["seed"]["type"] == "int"
        assert declared["seed"]["default"] == 20080625
        assert entropy["smoke_params"]["trials"] == 20

    def test_worker_error_surfaces_traceback_and_fails(self, tmp_path, capsys):
        # key_bits=0 passes spec validation driver-side but the worker's
        # scheme construction raises; the CLI must exit non-zero with the
        # worker-side traceback, not hang or crash with a master-side one.
        path = self._write(
            tmp_path,
            {
                "scenario": "campaign",
                "systems": [
                    {
                        "name": "bad-keyed",
                        "num_variants": 2,
                        "variations": [
                            {"name": "address-keyed", "params": {"key_bits": 0}}
                        ],
                        "transformed": False,
                    }
                ],
                "attacks": ["absolute-address-injection"],
                "backend": "process",
                "workers": 1,
            },
        )
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "failed on worker" in err
        assert "Traceback (most recent call last)" in err
        assert "key_bits" in err
