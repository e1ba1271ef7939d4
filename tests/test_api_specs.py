"""Tests for the declarative scenario API: specs, registry, builders, CLI.

Covers the three contracts the API layer adds on top of the engine:

* specs are frozen values that round-trip through dicts and JSON losslessly;
* the registry resolves names/aliases to fresh variation instances and turns
  unknown names or bad parameters into typed errors;
* the builders are behaviour-preserving -- a spec-built system produces the
  identical detection outcome as the hand-wired legacy construction path.
"""

import json

import pytest

from repro import (
    ADDRESS_PARTITIONING_SPEC,
    ADDRESS_UID_SPEC,
    FleetSpec,
    SINGLE_PROCESS_SPEC,
    STANDARD_SYSTEM_SPECS,
    SystemSpec,
    UID_DIVERSITY_SPEC,
    UnknownVariationError,
    VariationParameterError,
    VariationSpec,
    WorkloadSpec,
    build_engine,
    build_session,
    build_variations,
    registry,
    run_attack,
    run_campaign,
)
from repro.api.cli import load_scenario, main as cli_main
from repro.core.variations.uid import UIDVariation
from repro.memory.partition import UID_MASK_31


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", STANDARD_SYSTEM_SPECS, ids=lambda s: s.name)
    def test_standard_system_specs_round_trip(self, spec):
        assert SystemSpec.from_dict(spec.to_dict()) == spec
        assert SystemSpec.from_json(spec.to_json()) == spec

    def test_parameterised_variation_round_trips(self):
        spec = SystemSpec(
            name="custom",
            variations=(
                VariationSpec.of("uid", mask=UID_MASK_31),
                VariationSpec.of("address-extended", offset=0x2000),
            ),
            transformed=True,
            halt_on_alarm=False,
            max_rounds=1234,
        )
        rebuilt = SystemSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.variations[0].params_dict() == {"mask": UID_MASK_31}
        # JSON text itself is stable data, not an object graph.
        assert json.loads(spec.to_json())["variations"][0]["params"]["mask"] == UID_MASK_31

    def test_variation_spec_accepts_bare_names_and_dicts(self):
        spec = SystemSpec(variations=("uid", {"name": "address"}))
        assert [v.name for v in spec.variations] == ["uid", "address"]
        assert all(isinstance(v, VariationSpec) for v in spec.variations)

    def test_fleet_spec_round_trips_with_nested_specs(self):
        fleet = FleetSpec(
            name="fleet-8",
            system=ADDRESS_UID_SPEC,
            num_sessions=8,
            halt_policy="halt-all",
            workload=WorkloadSpec(total_requests=64, requests_per_connection=4),
            multiplex=4,
        )
        rebuilt = FleetSpec.from_json(fleet.to_json())
        assert rebuilt == fleet
        assert rebuilt.system == ADDRESS_UID_SPEC
        assert rebuilt.workload.requests_per_connection == 4

    def test_fleet_spec_coerces_nested_dicts(self):
        fleet = FleetSpec(
            system={"name": "s", "variations": ["uid"]},
            workload={"total_requests": 8},
        )
        assert isinstance(fleet.system, SystemSpec)
        assert isinstance(fleet.workload, WorkloadSpec)

    def test_specs_are_frozen_and_hashable(self):
        assert len({UID_DIVERSITY_SPEC, UID_DIVERSITY_SPEC, SINGLE_PROCESS_SPEC}) == 2
        with pytest.raises(Exception):
            UID_DIVERSITY_SPEC.name = "other"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown system spec keys"):
            SystemSpec.from_dict({"name": "x", "variants": 2})
        with pytest.raises(ValueError, match="unknown fleet spec keys"):
            FleetSpec.from_dict({"sessions": 4})
        with pytest.raises(ValueError, match="unknown workload spec keys"):
            WorkloadSpec.from_dict({"requests": 4})

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SystemSpec(num_variants=0)
        with pytest.raises(ValueError):
            FleetSpec(halt_policy="sometimes")
        with pytest.raises(ValueError):
            WorkloadSpec(total_requests=0)
        # A bool is no count: True once ran as a one-request workload.
        with pytest.raises(TypeError, match="total_requests must be int, got bool"):
            WorkloadSpec(total_requests=True)
        with pytest.raises(TypeError):
            VariationSpec("uid", params={"mask": [1, 2]})  # non-scalar parameter


class TestRegistry:
    def test_unknown_variation_name(self):
        with pytest.raises(UnknownVariationError) as excinfo:
            registry.create("no-such-variation")
        assert "uid" in str(excinfo.value)  # error lists the known names

    def test_bad_parameters_are_typed_errors(self):
        with pytest.raises(VariationParameterError):
            registry.create("uid", {"no_such_param": 1})
        with pytest.raises(VariationParameterError):
            # offset >= PARTITION_BIT is rejected by the factory itself.
            registry.create("address-extended", {"offset": 0x80000000})
        for mask in (0, "x", 1.0, True):
            # Mask 0 makes R_1 the identity: both variants encode root as 0.
            with pytest.raises(VariationParameterError, match="mask must be"):
                registry.create("uid", {"mask": mask})
        assert registry.create("uid-full-flip").mask == 0xFFFFFFFF

    def test_aliases_resolve_to_the_same_entry(self):
        assert type(registry.create("address")) is type(registry.create("address-partitioning"))

    def test_create_returns_fresh_parameterised_instances(self):
        a = registry.create("uid", {"mask": UID_MASK_31})
        b = registry.create("uid", {"mask": UID_MASK_31})
        assert a is not b
        assert isinstance(a, UIDVariation) and a.mask == UID_MASK_31

    def test_build_variations_instantiates_stack_in_order(self):
        variations = build_variations(ADDRESS_UID_SPEC)
        assert [type(v).__name__ for v in variations] == [
            "AddressPartitioning",
            "UIDVariation",
        ]
        # Fresh per build: no shared instances between systems/sessions.
        assert build_variations(ADDRESS_UID_SPEC)[1] is not variations[1]

    def test_unknown_name_surfaces_through_builders(self):
        spec = SystemSpec(variations=(VariationSpec("bogus"),))
        with pytest.raises(UnknownVariationError):
            build_variations(spec)


class TestBuilderParity:
    """A spec-built system behaves identically to the hand-wired seed path."""

    def _payloads(self):
        from repro.attacks.payloads import benign_request, uid_overwrite_payload

        return [benign_request(), uid_overwrite_payload(0)]

    def _preloaded_kernel(self):
        from repro.kernel.host import HTTP_PORT, build_standard_host

        kernel = build_standard_host()
        for payload in self._payloads():
            kernel.client_connect(HTTP_PORT, payload)
        return kernel

    def test_spec_built_session_matches_hand_wired_session(self):
        from repro.apps.httpd.server import make_httpd_factory
        from repro.engine.session import NVariantSession

        legacy = NVariantSession(
            self._preloaded_kernel(),
            make_httpd_factory(transformed=True, max_requests=2),
            [UIDVariation()],
            num_variants=2,
            name="httpd",
        ).run()
        modern = build_session(
            UID_DIVERSITY_SPEC,
            self._preloaded_kernel(),
            make_httpd_factory(transformed=True, max_requests=2),
            name="httpd",
        ).run()

        assert modern.attack_detected == legacy.attack_detected
        assert modern.lockstep_rounds == legacy.lockstep_rounds
        assert [a.alarm_type for a in modern.alarms] == [a.alarm_type for a in legacy.alarms]
        assert [v.syscall_count for v in modern.variants] == [
            v.syscall_count for v in legacy.variants
        ]

    def test_spec_campaign_matches_seed_detection_matrix(self):
        """The spec path reproduces the pinned seed matrix cell-for-cell."""
        from repro.attacks.uid_attacks import standard_uid_attacks

        attack = next(
            a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite"
        )
        report = run_campaign(STANDARD_SYSTEM_SPECS, [attack])
        assert report.matrix()["full-word-root-overwrite"] == {
            "single-process": "undetected-compromise",
            "2-variant-address": "undetected-compromise",
            "2-variant-uid": "detected",
            "2-variant-address+uid": "detected",
        }

    def test_run_attack_dispatches_address_attacks(self):
        from repro.attacks.memory_attacks import standard_address_attacks

        attack = standard_address_attacks()[0]
        single = run_attack(attack, SINGLE_PROCESS_SPEC)
        partitioned = run_attack(attack, ADDRESS_PARTITIONING_SPEC)
        assert single.configuration == "single-process" and not single.detected
        assert partitioned.configuration == "2-variant-address" and partitioned.detected

    def test_build_session_and_engine_respect_fleet_policy(self):
        from repro.apps.httpd.server import make_httpd_factory
        from repro.engine.policy import HaltPolicy

        fleet = FleetSpec(
            name="parity-fleet",
            system=UID_DIVERSITY_SPEC,
            num_sessions=2,
            halt_policy="halt-all",
            workload=WorkloadSpec(total_requests=2),
        )
        sessions = [
            build_session(
                fleet.system,
                self._preloaded_kernel(),
                make_httpd_factory(transformed=True, max_requests=2),
                name=f"s{i}",
            )
            for i in range(fleet.num_sessions)
        ]
        engine = build_engine(fleet, sessions)
        assert engine.halt_policy is HaltPolicy.HALT_ALL
        assert engine.name == "parity-fleet"
        result = engine.run()
        assert len(result.jobs) == 2


class TestOutcomeKindValues:
    def test_matrix_strings_are_outcome_kind_values(self):
        from repro.attacks.outcomes import OutcomeKind

        assert OutcomeKind.UNDETECTED_COMPROMISE.value == "undetected-compromise"
        assert OutcomeKind.DETECTED.value == "detected"


class TestCLI:
    def _write_scenario(self, tmp_path, data):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def _matrix(self, payload):
        """``{attack: {configuration: outcome}}`` from a campaign report's JSON."""
        table = payload["sections"][0]
        configurations = table["headers"][1:]
        return {row[0]: dict(zip(configurations, row[1:])) for row in table["rows"]}

    def test_campaign_scenario_end_to_end(self, tmp_path, capsys):
        path = self._write_scenario(
            tmp_path,
            {
                "scenario": "campaign",
                "systems": [
                    SINGLE_PROCESS_SPEC.to_dict(),
                    UID_DIVERSITY_SPEC.to_dict(),
                ],
                "attacks": ["full-word-root-overwrite"],
                "output": "json",
            },
        )
        assert cli_main(["run", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert self._matrix(payload)["full-word-root-overwrite"]["2-variant-uid"] == "detected"
        assert payload["telemetry"]["detection_rates"]["2-variant-uid"] == 1.0
        assert payload["telemetry"]["undetected_compromises"] == [
            {"attack": "full-word-root-overwrite", "configuration": "single-process"}
        ]

    def test_throughput_scenario_end_to_end(self, tmp_path, capsys):
        path = self._write_scenario(
            tmp_path,
            {
                "scenario": "throughput",
                "fleet": {
                    "name": "cli-fleet",
                    "system": {"name": "httpd", "variations": ["uid"]},
                    "num_sessions": 2,
                    "workload": {"total_requests": 8},
                },
                "output": "json",
            },
        )
        assert cli_main(["run", str(path)]) == 0
        telemetry = json.loads(capsys.readouterr().out)["telemetry"]
        assert telemetry["requests_completed"] == 8
        assert telemetry["alarms"] == 0
        assert telemetry["speedup"] > 1.0

    def test_campaign_scenario_selects_the_serving_app(self, tmp_path, capsys):
        path = self._write_scenario(
            tmp_path,
            {
                "scenario": "campaign",
                "app": "ftpd",
                "systems": [
                    SINGLE_PROCESS_SPEC.to_dict(),
                    UID_DIVERSITY_SPEC.to_dict(),
                ],
                "attacks": ["full-word-root-overwrite"],
                "output": "json",
            },
        )
        assert cli_main(["run", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        # The ftpd wire format carries the same attack to the same verdicts.
        assert self._matrix(payload)["full-word-root-overwrite"]["2-variant-uid"] == "detected"
        assert payload["telemetry"]["detection_rates"]["2-variant-uid"] == 1.0

    def test_unknown_app_is_a_clean_error(self, tmp_path, capsys):
        path = self._write_scenario(
            tmp_path, {"scenario": "campaign", "app": "gopherd"}
        )
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown app" in err
        assert "httpd" in err and "ftpd" in err

    def test_unknown_interposition_table_is_a_clean_error(self, tmp_path, capsys):
        path = self._write_scenario(
            tmp_path,
            {
                "scenario": "campaign",
                "systems": [{"name": "x", "interposition": "narrow"}],
                "attacks": ["full-word-root-overwrite"],
            },
        )
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown interposition table" in err
        assert "classic" in err and "wide" in err

    def test_unknown_attack_name_is_a_clean_error(self, tmp_path, capsys):
        path = self._write_scenario(
            tmp_path, {"scenario": "campaign", "attacks": ["no-such-attack"]}
        )
        assert cli_main(["run", str(path)]) == 2
        assert "unknown attack" in capsys.readouterr().err

    def test_unknown_scenario_kind_is_a_clean_error(self, tmp_path, capsys):
        path = self._write_scenario(tmp_path, {"scenario": "mystery"})
        assert cli_main(["run", str(path)]) == 2
        assert "unknown scenario kind" in capsys.readouterr().err

    def test_misspelled_top_level_key_is_a_clean_error(self, tmp_path, capsys):
        """A typo like 'atacks' must not silently fall back to the full suite."""
        path = self._write_scenario(
            tmp_path,
            {"scenario": "campaign", "atacks": ["full-word-root-overwrite"]},
        )
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad parameters for scenario 'campaign': unknown parameters: atacks" in err

    def test_bad_variation_name_in_scenario_is_a_clean_error(self, tmp_path, capsys):
        path = self._write_scenario(
            tmp_path,
            {
                "scenario": "campaign",
                "systems": [{"name": "x", "variations": ["bogus"]}],
                "attacks": ["full-word-root-overwrite"],
            },
        )
        assert cli_main(["run", str(path)]) == 2
        assert "unknown variation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system, key",
        [
            ({"num_variants": "two"}, "num_variants"),
            ({"num_variants": True}, "num_variants"),
            ({"max_rounds": "many"}, "max_rounds"),
            ({"max_rounds": 1.5}, "max_rounds"),
            ({"transformed": "yes"}, "transformed"),
            ({"halt_on_alarm": 1}, "halt_on_alarm"),
            ({"variations": [{"name": "uid", "params": {"mask": "x"}}]}, "mask"),
            ({"variations": [{"name": "uid", "params": {"mask": 0}}]}, "mask"),
        ],
    )
    def test_mistyped_system_value_is_a_clean_error(self, tmp_path, capsys, system, key):
        path = self._write_scenario(
            tmp_path,
            {
                "scenario": "campaign",
                "systems": [{"name": "x", "variations": ["uid"], **system}],
                "attacks": ["full-word-root-overwrite"],
            },
        )
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} must be" in err
        for raw in ("Traceback", "not supported between", "Unknown format code"):
            assert raw not in err

    @pytest.mark.parametrize(
        "systems, message",
        [
            (["2-variant-uid"], "system spec must be an object, got str '2-variant-uid'"),
            ([3], "system spec must be an object, got int 3"),
            (
                [{"name": "x", "variations": [{"name": "uid", "params": "x"}]}],
                "variation params must be an object, got str 'x'",
            ),
        ],
    )
    def test_non_object_system_input_is_a_clean_error(self, tmp_path, capsys, systems, message):
        path = self._write_scenario(
            tmp_path,
            {"scenario": "campaign", "systems": systems, "attacks": ["full-word-root-overwrite"]},
        )
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: bad system spec in scenario: {message}\n"

    @pytest.mark.parametrize(
        "fleet, key",
        [
            ({"num_sessions": "4"}, "num_sessions"),
            ({"num_sessions": True}, "num_sessions"),
            ({"multiplex": 2.0}, "multiplex"),
            ({"halt_policy": 3}, "halt_policy"),
            ({"name": 5}, "name"),
            ({"system": "httpd"}, "system"),
            ({"workload": {"total_requests": True}}, "total_requests"),
            ({"workload": {"requests_per_connection": "2"}}, "requests_per_connection"),
        ],
    )
    def test_mistyped_fleet_value_is_a_clean_error(self, tmp_path, capsys, fleet, key):
        path = self._write_scenario(
            tmp_path,
            {
                "scenario": "throughput",
                "fleet": {
                    "system": {"name": "httpd", "variations": ["address", "uid"]},
                    "num_sessions": 2,
                    "workload": {"total_requests": 4},
                    **fleet,
                },
            },
        )
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} must be" in err
        for raw in ("Traceback", "not supported between"):
            assert raw not in err

    def test_example_scenario_files_load_and_validate(self):
        from pathlib import Path

        scenarios = Path(__file__).resolve().parents[1] / "examples" / "scenarios"
        for name in ("detection_matrix.json", "throughput.json"):
            data = load_scenario(scenarios / name)
            assert data["scenario"] in ("campaign", "throughput")
            # Every spec in the file must resolve against the real registry.
            for entry in data.get("systems", []):
                build_variations(SystemSpec.from_dict(entry))
            if "fleet" in data:
                build_variations(FleetSpec.from_dict(data["fleet"]).system)
