"""``python -m repro``: run JSON scenarios and registered experiments.

A scenario file is data, not code::

    {
      "scenario": "campaign",                    // or "detection-matrix"
      "systems": [ ...SystemSpec dicts... ],     // default: the standard four
      "attacks": ["full-word-root-overwrite"],   // default: every standard attack
      "app": "ftpd",                             // serving app (default: httpd)
      "parallelism": 8,                          // engine worker count
      "rounds_per_turn": 8,                      // lockstep rounds per turn
      "halt": "per-cell",                        // or "halt-campaign"
      "backend": "process",                      // or "virtual" (the default)
      "workers": 4,                              // worker count on either backend
      "seed": 1234                               // root seed for keyed variations
    }

    {
      "scenario": "throughput",
      "fleet": { ...FleetSpec dict... },
      "output": "text"                           // or "json" or "markdown"
    }

    {
      "scenario": "experiment",                  // any registered experiment
      "experiment": "table3",
      "params": {"requests": 20}
    }

The ``experiment`` kind is generic: every entry in the experiment registry --
the paper's tables and figures, the detection matrix, the ablation suite, and
anything registered later -- gets a JSON scenario without a new CLI branch.
``detection-matrix`` and ``campaign`` share one data-driven campaign handler
(the former is the latter without scheduler knobs).

Commands: ``repro run scenario.json`` executes one scenario file
(``--parallelism N`` overrides the campaign worker count from the shell);
``repro experiment <name> [--set k=v] [--json] [--smoke]`` runs one
registered experiment directly; ``repro experiments`` and ``repro
variations`` list the registries a scenario may name.  Problems (unknown
keys, unknown experiment/variation/attack names, bad parameters) are
reported as errors with the known alternatives, not tracebacks.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro.api.campaign import (
    CAMPAIGN_BACKENDS,
    CampaignReport,
    attacks_by_name,
    run_campaign,
)
from repro.api.experiments import ExperimentRegistryError, experiments
from repro.api.registry import VariationRegistryError, registry
from repro.apps.catalog import UnknownAppError, get_app
from repro.corpus.records import CorpusError
from repro.interpose import InterpositionError
from repro.load import LoadError, run_loadtest
from repro.api.spec import (
    ExperimentSpec,
    FleetSpec,
    STANDARD_SYSTEM_SPECS,
    SystemSpec,
    uid_orbit_spec,
)
from repro.engine.campaign import CampaignHaltPolicy
from repro.engine.procpool import WorkerError

#: Output formats the campaign/throughput scenario kinds support.
OUTPUT_FORMATS = ("text", "json")

#: Output formats the experiment scenario kind supports (report renderers).
EXPERIMENT_OUTPUT_FORMATS = ("text", "json", "markdown")


class ScenarioError(ValueError):
    """A scenario file could not be understood or resolved."""


# ---------------------------------------------------------------------------
# Scenario loading
# ---------------------------------------------------------------------------


def load_scenario(path: Path) -> dict[str, Any]:
    """Read and minimally validate a scenario file."""
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        # str(exc) carries "line L column C (char N)" -- keep it verbatim.
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ScenarioError(f"scenario file {path} must hold a JSON object")
    if "scenario" not in data:
        raise ScenarioError(f"scenario file {path} needs a 'scenario' key")
    return dict(data)


def _resolve_output(
    data: Mapping[str, Any],
    override: Optional[str],
    allowed: Sequence[str] = OUTPUT_FORMATS,
) -> str:
    output = override if override is not None else data.get("output", "text")
    if output not in allowed:
        raise ScenarioError(
            f"output must be one of {', '.join(allowed)}, got {output!r}"
        )
    return output


def _resolve_systems(data: Mapping[str, Any]) -> list[SystemSpec]:
    if "systems" not in data:
        return list(STANDARD_SYSTEM_SPECS)
    try:
        specs = [SystemSpec.from_dict(entry) for entry in data["systems"]]
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad system spec in scenario: {exc}") from exc
    if not specs:
        raise ScenarioError("'systems' must name at least one system spec")
    return specs


def _resolve_app(data: Mapping[str, Any]) -> str:
    """The serving app whose wire format carries the campaign's attacks."""
    app = data.get("app", "httpd")
    if not isinstance(app, str):
        raise ScenarioError(f"app must be a string, got {app!r}")
    get_app(app)  # unknown names raise UnknownAppError listing the registry
    return app


def _resolve_attacks(data: Mapping[str, Any], app: str = "httpd") -> Optional[list]:
    known = attacks_by_name(app)
    if "attacks" not in data:
        # The full standard suite, rendered on the selected app's wire format.
        return list(known.values())
    selected = []
    for name in data["attacks"]:
        if name not in known:
            raise ScenarioError(
                f"unknown attack {name!r}; known attacks: {', '.join(sorted(known))}"
            )
        selected.append(known[name])
    if not selected:
        raise ScenarioError("'attacks' must name at least one attack")
    return selected


def _resolve_positive_int(data: Mapping[str, Any], key: str, default: int) -> int:
    value = data.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScenarioError(f"{key} must be a positive integer, got {value!r}")
    return value


def _resolve_seed(data: Mapping[str, Any]) -> Optional[int]:
    """The campaign root seed: any integer, or absent (fresh randomness)."""
    value = data.get("seed")
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"seed must be an integer, got {value!r}")
    return value


def _resolve_backend(data: Mapping[str, Any]) -> str:
    backend = data.get("backend", "virtual")
    if backend not in CAMPAIGN_BACKENDS:
        raise ScenarioError(
            f"backend must be one of {', '.join(CAMPAIGN_BACKENDS)}, got {backend!r}"
        )
    return backend


def _finite_or_none(value: float) -> Optional[float]:
    """NaN (an unmeasured metric) has no JSON spelling; emit null instead."""
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


# ---------------------------------------------------------------------------
# Scenario kinds
# ---------------------------------------------------------------------------


def _format_matrix_text(report: CampaignReport, specs: Sequence[SystemSpec]) -> str:
    from repro.analysis.tables import render_table

    matrix = report.matrix()
    configurations = [spec.name for spec in specs]
    rows = [
        [attack] + [matrix[attack].get(configuration, "-") for configuration in configurations]
        for attack in matrix
    ]
    table = render_table(["attack"] + configurations, rows, title="Detection matrix")
    lines = [table, ""]
    for configuration in configurations:
        rate = report.detection_rate(configuration)
        lines.append(f"  {configuration:24s} {rate * 100:5.1f}% of attacks detected")
    lines.append("")
    lines.append(f"undetected compromises: {len(report.security_failures())}")
    return "\n".join(lines)


def _run_throughput(data: Mapping[str, Any], output: str) -> tuple[int, str]:
    from repro.apps.clients.webbench import drive_engine

    if "fleet" not in data:
        raise ScenarioError("throughput scenarios need a 'fleet' spec")
    try:
        fleet = FleetSpec.from_dict(data["fleet"])
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad fleet spec in scenario: {exc}") from exc
    measurement = drive_engine(fleet)
    if output == "json":
        payload = {
            "scenario": "throughput",
            "fleet": fleet.to_dict(),
            "requests_sent": measurement.requests_sent,
            "requests_completed": measurement.requests_completed,
            "alarms": measurement.alarms,
            "virtual_elapsed": measurement.virtual_elapsed,
            "virtual_elapsed_sequential": measurement.virtual_elapsed_sequential,
            "requests_per_kilotick": _finite_or_none(measurement.requests_per_kilotick()),
            "speedup": _finite_or_none(measurement.speedup()),
        }
        return 0, json.dumps(payload, indent=2)
    lines = [
        f"fleet: {fleet.name} ({fleet.num_sessions} sessions x "
        f"{fleet.system.num_variants} variants, halt policy {fleet.halt_policy})",
        f"requests: {measurement.requests_completed}/{measurement.requests_sent} completed, "
        f"{measurement.alarms} alarms",
        f"virtual elapsed: {measurement.virtual_elapsed} ticks concurrent, "
        f"{measurement.virtual_elapsed_sequential} sequential",
        f"throughput: {measurement.requests_per_kilotick():.2f} req/ktick "
        f"({measurement.speedup():.2f}x over sequential)",
    ]
    return 0, "\n".join(lines)


def _run_campaign_scenario(
    data: Mapping[str, Any], output: str, *, kind: str
) -> tuple[int, str]:
    """The shared attacks-x-systems campaign handler.

    ``detection-matrix`` is the scheduler-knob-free subset of ``campaign``:
    both expand the same cross product through :func:`run_campaign`; only the
    campaign kind accepts (and reports) the engine scheduler's configuration.
    """
    specs = _resolve_systems(data)
    attacks = _resolve_attacks(data, _resolve_app(data))
    with_execution = kind == "campaign"
    rounds_per_turn = _resolve_positive_int(data, "rounds_per_turn", 8)
    halt = data.get("halt", CampaignHaltPolicy.PER_CELL.value)
    try:
        halt_policy = CampaignHaltPolicy(halt)
    except ValueError:
        raise ScenarioError(
            f"halt must be one of {', '.join(p.value for p in CampaignHaltPolicy)}, "
            f"got {halt!r}"
        ) from None
    backend = _resolve_backend(data) if with_execution else "virtual"
    # ``parallelism`` is the historical spelling of ``workers``; ``workers`` wins.
    workers = _resolve_positive_int(data, "parallelism", 1)
    if data.get("workers") is not None:
        workers = _resolve_positive_int(data, "workers", 0)
    report = run_campaign(
        specs,
        attacks,
        workers=workers,
        rounds_per_turn=rounds_per_turn,
        halt=halt_policy,
        backend=backend,
        seed=_resolve_seed(data) if with_execution else None,
    )
    execution = report.execution
    if output == "json":
        payload = {
            "scenario": kind,
            "systems": [spec.to_dict() for spec in specs],
            "matrix": report.matrix(),
            "detection_rates": {
                spec.name: report.detection_rate(spec.name) for spec in specs
            },
            "undetected_compromises": [
                {"attack": o.attack, "configuration": o.configuration}
                for o in report.security_failures()
            ],
        }
        if with_execution:
            payload["execution"] = {
                "backend": execution.backend,
                "parallelism": execution.parallelism,
                "rounds_per_turn": execution.rounds_per_turn,
                "jobs": len(execution.jobs),
                "skipped_jobs": len(execution.skipped_jobs),
                "truncated_jobs": len(execution.truncated_jobs),
                "scheduler_turns": execution.scheduler_turns,
                "virtual_elapsed": execution.virtual_elapsed,
                "virtual_elapsed_sequential": execution.virtual_elapsed_sequential,
                "speedup": _finite_or_none(execution.speedup()),
                "max_wait_turns": execution.max_wait_turns,
                "steals": execution.steals,
            }
        return 0, json.dumps(payload, indent=2)
    lines = [_format_matrix_text(report, specs)]
    if with_execution:
        lines.extend(
            [
                "",
                f"execution: {len(execution.jobs)} cells on {execution.parallelism} "
                f"{execution.backend} workers "
                f"({execution.rounds_per_turn} rounds/turn, {execution.scheduler_turns} turns)",
                f"virtual elapsed: {execution.virtual_elapsed} ticks concurrent, "
                f"{execution.virtual_elapsed_sequential} sequential "
                f"({execution.speedup():.2f}x)",
            ]
        )
        if execution.skipped_jobs or execution.truncated_jobs:
            lines.append(
                f"campaign halted: {len(execution.truncated_jobs)} cells truncated, "
                f"{len(execution.skipped_jobs)} skipped (neither counts as an outcome)"
            )
    return 0, "\n".join(lines)


def _resolve_experiment_spec(data: Mapping[str, Any]) -> ExperimentSpec:
    if "experiment" not in data:
        raise ScenarioError(
            "experiment scenarios need an 'experiment' key naming a registered "
            f"experiment ({', '.join(experiments.names())})"
        )
    params = data.get("params", {})
    if not isinstance(params, Mapping):
        raise ScenarioError(f"'params' must be a JSON object, got {params!r}")
    try:
        return ExperimentSpec.from_dict({"name": data["experiment"], "params": dict(params)})
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad experiment spec in scenario: {exc}") from exc


def _render_experiment_report(report, output: str) -> tuple[int, str]:
    """Render a finished experiment report; claims gate the exit code."""
    exit_code = 0 if report.ok else 1
    if output == "json":
        return exit_code, report.to_json()
    return exit_code, report.format(style=output)


def _run_experiment_scenario(data: Mapping[str, Any], output: str) -> tuple[int, str]:
    spec = _resolve_experiment_spec(data)
    report = experiments.run(spec)
    return _render_experiment_report(report, output)


def _run_loadtest_scenario(data: Mapping[str, Any], output: str) -> tuple[int, str]:
    """One open-loop load run: arrivals x admission against a serving system.

    Unknown arrival-process or admission-policy names raise the load
    subsystem's registry errors, which ``main`` renders as exit-2 ``error:``
    lines listing the registered names -- same contract as the interposition
    tables and the app catalog.
    """
    if "system" in data:
        try:
            spec = SystemSpec.from_dict(data["system"])
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad system spec in scenario: {exc}") from exc
    else:
        spec = uid_orbit_spec(2)
    rate = data.get("rate", 8.0)
    if not isinstance(rate, (int, float)) or isinstance(rate, bool) or rate <= 0:
        raise ScenarioError(f"rate must be a positive number, got {rate!r}")
    for key in ("arrival_params", "admission_params"):
        if key in data and not isinstance(data[key], Mapping):
            raise ScenarioError(f"'{key}' must be a JSON object, got {data[key]!r}")
    attacks = data.get("attacks", ())
    if not isinstance(attacks, Sequence) or isinstance(attacks, (str, bytes)):
        raise ScenarioError(f"'attacks' must be a list of attack kinds, got {attacks!r}")
    migrate_after = data.get("migrate_after")
    if migrate_after is not None and (
        not isinstance(migrate_after, int)
        or isinstance(migrate_after, bool)
        or migrate_after < 0
    ):
        raise ScenarioError(
            f"migrate_after must be a non-negative integer, got {migrate_after!r}"
        )
    result = run_loadtest(
        spec,
        app=_resolve_app(data),
        arrival=data.get("arrival", "poisson"),
        rate=float(rate),
        requests=_resolve_positive_int(data, "requests", 16),
        admission=data.get("admission", "accept-all"),
        admission_params=data.get("admission_params"),
        arrival_params=data.get("arrival_params"),
        seed=_resolve_seed(data),
        attacks=tuple(attacks),
        migrate_after=migrate_after,
    )
    if output == "json":
        return 0, json.dumps(
            {"scenario": "loadtest", **result.to_dict()}, indent=2
        )
    latency = result.latency
    lines = [
        f"open-loop load on {result.spec_name} ({result.app}, "
        f"{result.arrival} arrivals at {result.rate:g} req/ktick, "
        f"{result.admission} admission)",
        f"  offered {result.offered}, admitted {result.admitted}, "
        f"shed {result.shed}, completed {result.completed} "
        f"in {result.bursts} server run(s)",
        f"  queue high water {result.queue_high_water}, alarms {result.alarms}"
        + (", migrated mid-run" if result.migrated else ""),
        "  sojourn ticks: "
        + ", ".join(
            f"{label} {_finite_or_none(value) if _finite_or_none(value) is not None else 'n/a'}"
            for label, value in (
                ("p50", latency.p50),
                ("p90", latency.p90),
                ("p99", latency.p99),
                ("p99.9", latency.p999),
            )
        ),
    ]
    for outcome in result.attack_outcomes:
        status = (
            "halted"
            if outcome["halted"]
            else "completed" if outcome["completed"] else "shed"
        )
        lines.append(f"  attack {outcome['attack']}: {status}")
    return 0, "\n".join(lines)


#: Runner, the top-level keys the kind accepts ("scenario", "description" and
#: "output" are always allowed), and its legal output formats.
SCENARIO_RUNNERS = {
    "detection-matrix": (
        lambda data, output: _run_campaign_scenario(data, output, kind="detection-matrix"),
        frozenset({"systems", "attacks", "parallelism", "app"}),
        OUTPUT_FORMATS,
    ),
    "throughput": (_run_throughput, frozenset({"fleet"}), OUTPUT_FORMATS),
    "campaign": (
        lambda data, output: _run_campaign_scenario(data, output, kind="campaign"),
        frozenset(
            {"systems", "attacks", "parallelism", "rounds_per_turn", "halt", "backend",
             "workers", "seed", "app"}
        ),
        OUTPUT_FORMATS,
    ),
    "experiment": (
        _run_experiment_scenario,
        frozenset({"experiment", "params"}),
        EXPERIMENT_OUTPUT_FORMATS,
    ),
    "loadtest": (
        _run_loadtest_scenario,
        frozenset(
            {"system", "app", "arrival", "arrival_params", "rate", "requests",
             "admission", "admission_params", "seed", "attacks", "migrate_after"}
        ),
        OUTPUT_FORMATS,
    ),
}

_COMMON_SCENARIO_KEYS = frozenset({"scenario", "description", "output"})


def run_scenario(
    data: Mapping[str, Any],
    *,
    output: Optional[str] = None,
    parallelism: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    seed: Optional[int] = None,
) -> tuple[int, str]:
    """Execute one loaded scenario; returns ``(exit_code, rendered output)``."""
    kind = data["scenario"]
    entry = SCENARIO_RUNNERS.get(kind)
    if entry is None:
        raise ScenarioError(
            f"unknown scenario kind {kind!r}; known kinds: "
            f"{', '.join(sorted(SCENARIO_RUNNERS))}"
        )
    runner, kind_keys, output_formats = entry
    allowed = _COMMON_SCENARIO_KEYS | kind_keys
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ScenarioError(
            f"unknown {kind} scenario keys: {', '.join(unknown)}; expected a subset of "
            f"{', '.join(sorted(allowed))}"
        )
    for key, override in (
        ("parallelism", parallelism),
        ("backend", backend),
        ("workers", workers),
    ):
        if override is not None:
            if key not in kind_keys:
                raise ScenarioError(f"{kind} scenarios do not accept --{key}")
            data = {**data, key: override}
    if seed is not None:
        # Campaign scenarios take the root seed at the top level; experiment
        # scenarios pass it through to experiments that declare the parameter
        # (the registry rejects it for those that do not).
        if kind == "experiment":
            data = {**data, "params": {**data.get("params", {}), "seed": seed}}
        elif "seed" in kind_keys:
            data = {**data, "seed": seed}
        else:
            raise ScenarioError(f"{kind} scenarios do not accept --seed")
    resolved_output = _resolve_output(data, output, output_formats)
    return runner(data, resolved_output)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _command_variations() -> int:
    rows = registry.describe()
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        parameters = f" (params: {row['parameters']})" if row["parameters"] else ""
        print(f"  {row['name']:<{width}}  {row['description']}{parameters}")
    return 0


def _command_experiments(*, names_only: bool = False, as_json: bool = False) -> int:
    rows = experiments.describe()
    if names_only:
        for row in rows:
            print(row["name"])
        return 0
    if as_json:
        payload = [
            {
                "name": entry.name,
                "description": entry.description,
                "parameters": [
                    {
                        "name": parameter.name,
                        "type": parameter.kind.__name__,
                        "default": parameter.default,
                        "description": parameter.description,
                    }
                    for parameter in entry.parameters
                ],
                "smoke_params": dict(entry.smoke_params),
            }
            for entry in sorted(experiments, key=lambda e: e.name)
        ]
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        parameters = f" (params: {row['parameters']})" if row["parameters"] else ""
        print(f"  {row['name']:<{width}}  {row['description']}{parameters}")
    return 0


def _parse_set_params(assignments: Sequence[str]) -> dict[str, Any]:
    """Parse ``--set key=value`` pairs; values are JSON scalars, else strings."""
    params: dict[str, Any] = {}
    for assignment in assignments:
        key, separator, raw = assignment.partition("=")
        if not separator or not key:
            raise ScenarioError(
                f"--set expects key=value, got {assignment!r}"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        params[key] = value
    return params


def _command_experiment(arguments) -> int:
    params = _parse_set_params(arguments.set or [])
    # --backend/--workers are flag sugar over --set; experiments that do not
    # declare those parameters reject them with the registry's typed error.
    if getattr(arguments, "backend", None) is not None:
        params.setdefault("backend", arguments.backend)
    if getattr(arguments, "workers", None) is not None:
        params.setdefault("workers", arguments.workers)
    if getattr(arguments, "seed", None) is not None:
        params.setdefault("seed", arguments.seed)
    if getattr(arguments, "corpus_dir", None) is not None:
        params.setdefault("corpus_dir", str(arguments.corpus_dir))
    try:
        if arguments.smoke:
            spec = experiments.smoke_spec(arguments.name)
            if params:
                spec = ExperimentSpec(
                    name=spec.name, params={**spec.params_dict(), **params}
                )
        else:
            spec = ExperimentSpec(name=arguments.name, params=params)
    except (TypeError, ValueError) as exc:
        # e.g. --set with a non-scalar JSON value; keep the no-tracebacks promise.
        raise ScenarioError(f"bad experiment parameters: {exc}") from exc
    report = experiments.run(spec)
    output = "json" if arguments.json else arguments.output
    exit_code, rendered = _render_experiment_report(report, output)
    print(rendered)
    if exit_code != 0:
        print(
            f"error: experiment {spec.name!r} failed "
            f"{len(report.failed_claims)} claim(s): "
            + "; ".join(report.failed_claims),
            file=sys.stderr,
        )
    return exit_code


def _command_corpus(arguments) -> int:
    """``repro corpus generate``: write a seeded scenario corpus to disk."""
    from repro.corpus import generate_corpus, write_corpus

    records = generate_corpus(arguments.seed, records=arguments.records)
    out_dir = write_corpus(records, arguments.out, seed=arguments.seed)
    print(f"wrote {len(records)} scenario records to {out_dir}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The ``python -m repro`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Run declarative N-variant scenarios and registered experiments "
            "(see examples/scenarios/)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run a scenario JSON file")
    run_parser.add_argument("scenario", type=Path, help="path to the scenario JSON file")
    run_parser.add_argument(
        "--output",
        choices=EXPERIMENT_OUTPUT_FORMATS,
        default=None,
        help="override the scenario file's output format "
        "(markdown: experiment scenarios only)",
    )
    run_parser.add_argument(
        "--parallelism",
        type=int,
        default=None,
        metavar="N",
        help="override the campaign worker count (campaign/detection-matrix scenarios)",
    )
    run_parser.add_argument(
        "--backend",
        choices=CAMPAIGN_BACKENDS,
        default=None,
        help="override the campaign execution backend (campaign scenarios): "
        "virtual = in-process scheduler, process = OS worker processes",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="K",
        help="override the campaign worker count on either backend (campaign scenarios)",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="root seed for keyed variations (campaign scenarios, and experiment "
        "scenarios whose experiment declares a seed parameter)",
    )

    experiment_parser = subparsers.add_parser(
        "experiment", help="run one registered experiment"
    )
    experiment_parser.add_argument("name", help="experiment name (see 'experiments')")
    experiment_parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="set an experiment parameter (repeatable; values parsed as JSON scalars)",
    )
    experiment_parser.add_argument(
        "--output",
        choices=EXPERIMENT_OUTPUT_FORMATS,
        default="text",
        help="report rendering (default: text)",
    )
    experiment_parser.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --output json",
    )
    experiment_parser.add_argument(
        "--smoke",
        action="store_true",
        help="run at the experiment's smallest meaningful parameters",
    )
    experiment_parser.add_argument(
        "--backend",
        choices=CAMPAIGN_BACKENDS,
        default=None,
        help="shorthand for --set backend=... (experiments that run campaigns)",
    )
    experiment_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="K",
        help="shorthand for --set workers=... (experiments that run campaigns)",
    )
    experiment_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="shorthand for --set seed=... (experiments with keyed randomness)",
    )
    experiment_parser.add_argument(
        "--corpus-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="shorthand for --set corpus_dir=... (the corpus experiment: run a "
        "written corpus directory instead of generating one)",
    )

    corpus_parser = subparsers.add_parser(
        "corpus", help="scenario-corpus tools (see 'corpus generate')"
    )
    corpus_subparsers = corpus_parser.add_subparsers(dest="corpus_command", required=True)
    generate_parser = corpus_subparsers.add_parser(
        "generate", help="write a seeded scenario corpus directory"
    )
    generate_parser.add_argument(
        "--seed",
        type=int,
        default=20080625,
        metavar="S",
        help="root seed every record derives from (default: 20080625)",
    )
    generate_parser.add_argument(
        "--records",
        type=int,
        default=240,
        metavar="N",
        help="corpus size after class-balanced trimming (default: 240)",
    )
    generate_parser.add_argument(
        "--out",
        type=Path,
        required=True,
        metavar="DIR",
        help="directory to write the record files and manifest into",
    )

    experiments_parser = subparsers.add_parser(
        "experiments", help="list registered experiments"
    )
    experiments_parser.add_argument(
        "--names",
        action="store_true",
        help="print bare names only (one per line, for scripting)",
    )
    experiments_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable registry dump (names, typed parameters, defaults)",
    )

    subparsers.add_parser("variations", help="list registered variations")

    arguments = parser.parse_args(argv)
    if arguments.command == "variations":
        return _command_variations()
    if arguments.command == "experiments":
        return _command_experiments(names_only=arguments.names, as_json=arguments.json)

    try:
        if arguments.command == "experiment":
            return _command_experiment(arguments)
        if arguments.command == "corpus":
            return _command_corpus(arguments)
        data = load_scenario(arguments.scenario)
        exit_code, rendered = run_scenario(
            data,
            output=arguments.output,
            parallelism=arguments.parallelism,
            backend=arguments.backend,
            workers=arguments.workers,
            seed=arguments.seed,
        )
    except (
        ScenarioError,
        VariationRegistryError,
        ExperimentRegistryError,
        CorpusError,
        InterpositionError,
        UnknownAppError,
        LoadError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        # A process-backend cell died; surface the worker-side traceback the
        # pool marshalled back instead of a master-side one.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(rendered)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
