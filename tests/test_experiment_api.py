"""Tests for the first-class experiment API: spec, registry, report, CLI.

Covers the contracts the experiment layer adds:

* :class:`ExperimentSpec` is frozen data that round-trips through dicts/JSON
  and rejects unknown keys, like every other spec;
* the registry lists all eight paper experiments, resolves names to validated
  runs, and turns unknown names / unknown or mistyped parameters into typed
  errors;
* :class:`ExperimentReport` has a stable JSON schema and renders through the
  shared text/markdown renderers (no experiment keeps a bespoke formatter);
* the redesign is behaviour-preserving: a registry run produces the same
  claims and rows as the experiment module's own ``run()`` entry point;
* the CLI runs every experiment (``experiment <name>``) and the generic
  ``{"scenario": "experiment"}`` kind end-to-end.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api.cli import load_scenario, main as cli_main
from repro.api.experiments import (
    ExperimentParameterError,
    ExperimentRegistry,
    ExperimentReport,
    ReportKeyValues,
    ReportTable,
    UnknownExperimentError,
    experiments,
)
from repro.api.spec import ExperimentSpec

#: Every experiment the registry must expose (the paper's evaluation plus
#: the PR-5 N-scaling sweep).
EXPECTED_EXPERIMENTS = (
    "ablations",
    "apps",
    "corpus",
    "detection",
    "entropy",
    "figure1",
    "figure2",
    "loadtest",
    "nscaling",
    "section4",
    "table1",
    "table2",
    "table3",
)

#: Fast parameters for end-to-end runs (cheaper than each default spec).
FAST_PARAMS = {
    "table1": {"sample_count": 128},
    "table3": {"requests": 10},
    "figure1": {"benign_requests": 4},
    "ablations": {"user_space_uses": 3, "requests": 2},
    "apps": {"backend": "virtual", "requests": 6},
    "nscaling": {"min_variants": 2, "max_variants": 3, "requests": 6},
    "entropy": {"max_variants": 3, "max_key_bits": 4, "trials": 20},
    "corpus": {"records": 40, "workers": 4, "backend": "virtual"},
}


def _fast_spec(name: str) -> ExperimentSpec:
    return ExperimentSpec(name=name, params=FAST_PARAMS.get(name, {}))


class TestExperimentSpec:
    def test_round_trips_through_dict_and_json(self):
        spec = ExperimentSpec.of("table3", requests=20)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert spec.params_dict() == {"requests": 20}

    def test_params_are_canonicalized_and_hashable(self):
        a = ExperimentSpec("ablations", params={"requests": 2, "user_space_uses": 3})
        b = ExperimentSpec("ablations", params={"user_space_uses": 3, "requests": 2})
        assert a == b
        assert len({a, b}) == 1

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment spec keys"):
            ExperimentSpec.from_dict({"name": "table3", "parms": {"requests": 20}})

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError, match="needs a 'name'"):
            ExperimentSpec.from_dict({"params": {}})

    def test_non_scalar_params_rejected(self):
        with pytest.raises(TypeError):
            ExperimentSpec("table3", params={"requests": [1, 2]})

    def test_empty_params_omitted_from_dict(self):
        assert ExperimentSpec("figure2").to_dict() == {"name": "figure2"}


class TestRegistry:
    def test_every_expected_experiment_registered(self):
        assert tuple(experiments.names()) == EXPECTED_EXPERIMENTS
        for name in EXPECTED_EXPERIMENTS:
            assert name in experiments

    def test_unknown_experiment_is_a_typed_error(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            experiments.run("no-such-experiment")
        assert "table3" in str(excinfo.value)  # error lists the known names

    def test_unknown_parameter_is_a_typed_error(self):
        with pytest.raises(ExperimentParameterError, match="unknown parameters"):
            experiments.run(ExperimentSpec.of("table3", request_count=10))

    def test_mistyped_parameter_is_a_typed_error(self):
        with pytest.raises(ExperimentParameterError, match="must be int"):
            experiments.run(ExperimentSpec.of("table3", requests="lots"))
        # bool is not an int here, even though Python subclasses it.
        with pytest.raises(ExperimentParameterError, match="must be int"):
            experiments.run(ExperimentSpec.of("table3", requests=True))

    def test_parameterless_experiment_rejects_any_parameter(self):
        with pytest.raises(ExperimentParameterError, match=r"accepted: \(none\)"):
            experiments.run(ExperimentSpec.of("figure2", requests=4))

    def test_out_of_range_parameter_is_a_typed_error(self):
        with pytest.raises(ExperimentParameterError, match="requests must be at least 1"):
            experiments.validate(ExperimentSpec.of("table3", requests=0))
        with pytest.raises(
            ExperimentParameterError, match="backend must be one of virtual, process, got"
        ):
            experiments.validate(ExperimentSpec.of("detection", backend="bogus"))

    def test_smoke_specs_cover_every_experiment(self):
        for name in experiments.names():
            spec = experiments.smoke_spec(name)
            assert spec.name == name
            experiments.validate(spec)  # smoke params must themselves be legal

    def test_declared_parameters_match_runner_signatures(self):
        """The registry's typed parameter declarations cannot drift from the
        actual keyword defaults of each registered runner."""
        import inspect

        for entry in experiments:
            signature = inspect.signature(entry.resolve())
            accepted = {
                p.name: p.default
                for p in signature.parameters.values()
                if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
            }
            assert sorted(accepted) == sorted(p.name for p in entry.parameters), entry.name
            for parameter in entry.parameters:
                assert accepted[parameter.name] == parameter.default, (
                    entry.name,
                    parameter.name,
                )
                assert parameter.problem(parameter.default) is None, (
                    entry.name,
                    parameter.name,
                )

    @pytest.mark.parametrize("name", ["apps", "corpus", "loadtest"])
    def test_unknown_backend_names_the_choices(self, name):
        import importlib

        module = importlib.import_module(f"repro.analysis.experiments.{name}")
        with pytest.raises(
            ValueError, match="backend must be one of virtual, process, got 'bogus'"
        ):
            module.run(backend="bogus")

    def test_runner_must_return_a_report(self):
        scratch = ExperimentRegistry()
        scratch.register("broken", dict, description="not an experiment")
        with pytest.raises(ValueError, match="returned dict, which has no to_report"):
            scratch.run("broken")
        scratch.register("unrendered", lambda: SimpleNamespace(to_report=dict))
        with pytest.raises(ValueError, match="reported dict, not an ExperimentReport"):
            scratch.run("unrendered")

    def test_loader_strings_resolve_lazily(self):
        scratch = ExperimentRegistry()
        entry = scratch.register("lazy", "repro.analysis.experiments.figure2:run")
        assert entry.resolve().__name__ == "run"

    def test_registry_run_stamps_spec_and_telemetry(self):
        report = experiments.run(_fast_spec("section4"))
        assert report.spec == _fast_spec("section4")
        assert report.telemetry["wall_seconds"] >= 0


class TestReport:
    def test_json_schema_is_stable(self):
        report = experiments.run(_fast_spec("section4"))
        payload = json.loads(report.to_json())
        assert sorted(payload) == [
            "claims",
            "experiment",
            "ok",
            "params",
            "sections",
            "telemetry",
            "title",
        ]
        assert payload["experiment"] == "section4"
        assert payload["ok"] is True
        for section in payload["sections"]:
            assert section["kind"] in ("table", "key-values")
            if section["kind"] == "table":
                assert sorted(section) == ["headers", "kind", "rows", "title"]
                for row in section["rows"]:
                    assert len(row) == len(section["headers"])
            else:
                assert sorted(section) == ["kind", "pairs", "title"]

    def test_text_and_markdown_renderers(self):
        report = experiments.run(_fast_spec("table1"))
        text = report.format()
        markdown = report.format(style="markdown")
        assert "Table 1. Reexpression Functions" in text
        assert "[ok]" in text
        assert "| Variation |" in markdown
        assert "- [x]" in markdown
        with pytest.raises(ValueError, match="style must be one of"):
            report.format(style="html")

    def test_failed_claims_gate_ok(self):
        report = ExperimentReport(
            title="t", claims={"holds": True, "breaks": False}
        )
        assert not report.ok
        assert report.failed_claims == ["breaks"]
        assert "[FAIL] breaks" in report.format()

    def test_table_section_validates_row_width(self):
        with pytest.raises(ValueError, match="columns"):
            ReportTable(title="t", headers=("a", "b"), rows=(("only",),))

    def test_rows_helper_collects_table_rows_in_order(self):
        report = ExperimentReport(
            title="t",
            sections=(
                ReportTable(title="x", headers=("h",), rows=(("1",), ("2",))),
                ReportKeyValues(title="kv", pairs=(("k", "v"),)),
                ReportTable(title="y", headers=("h",), rows=(("3",),)),
            ),
        )
        assert report.rows() == [("1",), ("2",), ("3",)]


class TestParity:
    """The registry path reproduces the module entry points exactly."""

    @pytest.mark.parametrize("name", EXPECTED_EXPERIMENTS)
    def test_registry_run_matches_module_run(self, name):
        import importlib

        spec = _fast_spec(name)
        via_registry = experiments.run(spec)
        module = importlib.import_module(f"repro.analysis.experiments.{name}")
        via_module = module.run(**spec.params_dict()).to_report()
        assert via_registry.claims == via_module.claims
        assert via_registry.rows() == via_module.rows()
        assert [s.to_dict() for s in via_registry.sections] == [
            s.to_dict() for s in via_module.sections
        ]

    def test_no_experiment_keeps_a_bespoke_format_renderer(self):
        """All output flows through ExperimentReport's renderers."""
        import importlib

        for name in EXPECTED_EXPERIMENTS:
            module = importlib.import_module(f"repro.analysis.experiments.{name}")
            report = experiments.run(experiments.smoke_spec(name))
            result_type = type(report.result)
            assert not hasattr(result_type, "format"), (name, result_type)
            assert hasattr(result_type, "to_report"), (name, result_type)
            assert experiments.get(name).resolve() is module.run


class TestCLI:
    def _write_scenario(self, tmp_path, data):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def test_experiments_listing_names_every_entry(self, capsys):
        assert cli_main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_EXPERIMENTS:
            assert name in out

    def test_experiments_names_are_script_friendly(self, capsys):
        assert cli_main(["experiments", "--names"]) == 0
        assert capsys.readouterr().out.split() == list(EXPECTED_EXPERIMENTS)

    @pytest.mark.parametrize("name", EXPECTED_EXPERIMENTS)
    def test_every_experiment_runs_via_cli(self, name, capsys):
        arguments = ["experiment", name, "--smoke", "--json"]
        for key, value in FAST_PARAMS.get(name, {}).items():
            arguments += ["--set", f"{key}={value}"]
        assert cli_main(arguments) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == name
        assert payload["ok"] is True

    @pytest.mark.parametrize("name", EXPECTED_EXPERIMENTS)
    def test_every_experiment_runs_via_scenario_json(self, name, tmp_path, capsys):
        path = self._write_scenario(
            tmp_path,
            {
                "scenario": "experiment",
                "experiment": name,
                "params": {**experiments.smoke_spec(name).params_dict(), **FAST_PARAMS.get(name, {})},
                "output": "json",
            },
        )
        assert cli_main(["run", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == name
        assert payload["ok"] is True
        assert payload["claims"]

    def test_set_overrides_parse_json_scalars(self, capsys):
        assert cli_main(["experiment", "table3", "--set", "requests=12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"] == {"requests": 12}

    def test_unknown_experiment_is_a_clean_error(self, capsys):
        assert cli_main(["experiment", "mystery"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_parameter_is_a_clean_error(self, capsys):
        assert cli_main(["experiment", "table3", "--set", "cycles=9"]) == 2
        assert "unknown parameters" in capsys.readouterr().err

    def test_non_scalar_set_value_is_a_clean_error(self, capsys):
        assert cli_main(["experiment", "table3", "--set", "requests=[1,2]"]) == 2
        err = capsys.readouterr().err
        assert "bad experiment parameters" in err
        assert "JSON scalar" in err

    def test_non_scalar_scenario_param_names_experiments(self, tmp_path, capsys):
        """The spec-kind label in the error points at experiments, not variations."""
        path = self._write_scenario(
            tmp_path,
            {"scenario": "experiment", "experiment": "table3", "params": {"requests": [1]}},
        )
        assert cli_main(["run", str(path)]) == 2
        assert "experiment parameter 'requests'" in capsys.readouterr().err

    def test_experiment_scenario_requires_experiment_key(self, tmp_path, capsys):
        path = self._write_scenario(tmp_path, {"scenario": "experiment"})
        assert cli_main(["run", str(path)]) == 2
        assert "need an 'experiment' key" in capsys.readouterr().err

    def test_experiment_scenario_rejects_unknown_keys(self, tmp_path, capsys):
        path = self._write_scenario(
            tmp_path,
            {"scenario": "experiment", "experiment": "figure2", "systems": []},
        )
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad parameters for scenario 'experiment': unknown parameters: systems" in err

    def test_markdown_output_for_experiment_scenarios(self, tmp_path, capsys):
        path = self._write_scenario(
            tmp_path,
            {"scenario": "experiment", "experiment": "section4", "output": "markdown"},
        )
        assert cli_main(["run", str(path)]) == 0
        assert "| Change category |" in capsys.readouterr().out

    def test_unknown_output_format_is_a_clean_error(self, tmp_path, capsys):
        path = self._write_scenario(
            tmp_path, {"scenario": "experiment", "experiment": "section4", "output": "html"}
        )
        assert cli_main(["run", str(path)]) == 2
        assert "output must be one of text, json, markdown" in capsys.readouterr().err

    def test_example_experiment_scenarios_load_and_resolve(self):
        scenarios = Path(__file__).resolve().parents[1] / "examples" / "scenarios"
        for name in ("table3.json", "ablations.json"):
            data = load_scenario(scenarios / name)
            assert data["scenario"] == "experiment"
            spec = ExperimentSpec.from_dict(
                {"name": data["experiment"], "params": data.get("params", {})}
            )
            experiments.validate(spec)

    @pytest.mark.parametrize(
        "arguments",
        [
            "table3 --set requests=-1",
            "table3 --set requests=0",
            "nscaling --set min_variants=5 --set max_variants=2",
            "detection --set backend=bogus",
            "detection --set workers=0",
            "corpus --set records=0 --set backend=virtual",
            "entropy --smoke --set trials=0",
            # Every count parameter: a zero count leaves a claim no evidence.
            "table1 --set sample_count=0",
            "figure1 --set benign_requests=0",
            "apps --set requests=0",
            "nscaling --smoke --set requests=0",
            "loadtest --set requests=0",
            "ablations --set requests=0",
            "ablations --set user_space_uses=0",
        ],
    )
    def test_out_of_range_parameters_are_clean_errors(self, arguments, capsys):
        assert cli_main(["experiment", *arguments.split()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad parameters for experiment")
        assert "Traceback" not in err

    def test_experiment_command_takes_the_run_flags(self, capsys):
        assert cli_main(["experiment", "section4", "--output", "markdown"]) == 0
        assert "| Change category |" in capsys.readouterr().out
        assert cli_main(["experiment", "corpus", "--smoke", "--backend", "virtual",
                         "--workers", "2", "--seed", "7", "--set", "records=30",
                         "--json"]) == 0
        params = json.loads(capsys.readouterr().out)["params"]
        assert params == {"backend": "virtual", "records": 30, "seed": 7, "workers": 2}

    def test_failed_claims_exit_nonzero(self, monkeypatch, capsys):
        """A run whose claims do not hold is a CI failure, not a success."""

        def forced_failure():
            return SimpleNamespace(
                to_report=lambda: ExperimentReport(title="forced failure", claims={"holds": False})
            )

        scratch = ExperimentRegistry()
        entry = scratch.register("forced", forced_failure)
        monkeypatch.setitem(experiments._entries, "forced", entry)
        assert cli_main(["experiment", "forced"]) == 1
        err = capsys.readouterr().err
        assert "failed 1 claim(s)" in err
