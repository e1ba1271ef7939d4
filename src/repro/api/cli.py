"""``python -m repro``: run JSON scenarios and registered experiments.

A scenario file is data, not code.  Its ``scenario`` key names one of four
kinds, and every other key is one of that kind's parameters::

    {
      "scenario": "campaign",                    // attacks x systems
      "systems": [ ...SystemSpec dicts... ],     // default: the standard four
      "attacks": ["full-word-root-overwrite"],   // default: every standard attack
      "app": "ftpd",                             // serving app (default: httpd)
      "workers": 8,                              // worker count on either backend
      "backend": "process",                      // or "virtual" (the default)
      "seed": 1234                               // root seed for keyed variations
    }

    {"scenario": "throughput", "fleet": { ...FleetSpec dict... }}
    {"scenario": "loadtest", "system": { ...SystemSpec dict... }, "rate": 40.0, ...}
    {"scenario": "experiment", "experiment": "table3", "params": {"requests": 20}}

Any kind may also carry a ``description`` and an ``output`` format.  Each
kind is one entry of :data:`SCENARIO_KINDS`: a runner returning an
:class:`~repro.api.experiments.ExperimentReport`, and its keys declared as
:class:`~repro.api.experiments.ExperimentParameter`\\ s, checked by the same
:func:`~repro.api.experiments.check_parameters` the experiment registry uses.
So every kind rejects a bad key the same way and renders the same way (text,
JSON or markdown), and only failed claims make the exit code 1.

``repro run scenario.json`` runs a scenario file; ``repro experiment NAME``
runs one registered experiment as an ``experiment`` scenario.  Both take
``--output`` and the ``--backend``/``--workers``/``--seed`` overrides.
``repro experiments`` and ``repro variations`` list the registries, and
``repro corpus generate`` writes a seeded scenario corpus.  Problems are
``error:`` lines with exit code 2, not tracebacks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

# Only what parsing and the listings need is imported here; each scenario
# kind imports its own machinery when it runs.
from repro.api.experiments import (
    REPORT_STYLES,
    ExperimentParameter,
    ExperimentRegistryError,
    ExperimentReport,
    ReportKeyValues,
    check_parameters,
    experiments,
)
from repro.api.registry import VariationRegistryError, registry
from repro.api.spec import (
    ExperimentSpec,
    FleetSpec,
    STANDARD_SYSTEM_SPECS,
    SystemSpec,
    uid_orbit_spec,
)
from repro.engine.policy import CAMPAIGN_BACKENDS, CampaignHaltPolicy

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


def _system_spec(entry: Any) -> SystemSpec:
    try:
        return SystemSpec.from_dict(entry)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad system spec in scenario: {exc}") from exc


# ---------------------------------------------------------------------------
# Scenario kinds
# ---------------------------------------------------------------------------


def _run_campaign(*, systems, attacks, app, **options) -> ExperimentReport:
    """Every selected attack against every system spec, as one campaign.

    *options* are :func:`~repro.api.campaign.run_campaign`'s scheduler keywords.
    """
    from repro.api.campaign import attacks_by_name, run_campaign

    specs = STANDARD_SYSTEM_SPECS if systems is None else [_system_spec(s) for s in systems]
    if not specs:
        raise ScenarioError("'systems' must name at least one system spec")
    known = attacks_by_name(app)  # an unknown app raises UnknownAppError
    attacks = list(known) if attacks is None else attacks
    for name in attacks:
        if name not in known:
            raise ScenarioError(
                f"unknown attack {name!r}; known attacks: {', '.join(sorted(known))}"
            )
    if not attacks:
        raise ScenarioError("'attacks' must name at least one attack")
    report = run_campaign(specs, [known[name] for name in attacks], **options)
    configurations = [spec.name for spec in specs]
    rates = {name: report.detection_rate(name) for name in configurations}
    failures = report.security_failures()
    return ExperimentReport(
        title=f"Detection matrix ({app})",
        sections=(
            report.matrix_table("Detection matrix", configurations),
            ReportKeyValues(
                title="Detection rates",
                pairs=(
                    *((name, f"{rate:.1%} of attacks detected") for name, rate in rates.items()),
                    ("undetected compromises", len(failures)),
                ),
            ),
        ),
        telemetry={
            "detection_rates": rates,
            "undetected_compromises": [
                {"attack": o.attack, "configuration": o.configuration} for o in failures
            ],
            **report.execution_telemetry(detail=True),
        },
        result=report,
    )


def _run_throughput(*, fleet) -> ExperimentReport:
    """One engine fleet under its closed-loop workload."""
    from repro.apps.clients.webbench import drive_engine

    if fleet is None:
        raise ScenarioError("throughput scenarios need a 'fleet' spec")
    try:
        spec = FleetSpec.from_dict(fleet)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad fleet spec in scenario: {exc}") from exc
    measurement = drive_engine(spec)
    heading = (
        f"fleet: {spec.name} ({spec.num_sessions} sessions x "
        f"{spec.system.num_variants} variants, halt policy {spec.halt_policy})"
    )
    return ExperimentReport(
        title=f"Throughput of fleet {spec.name}",
        sections=(ReportKeyValues(title=heading, pairs=()),),
        telemetry={
            "requests_sent": measurement.requests_sent,
            "requests_completed": measurement.requests_completed,
            "alarms": measurement.alarms,
            "virtual_elapsed": measurement.virtual_elapsed,
            "virtual_elapsed_sequential": measurement.virtual_elapsed_sequential,
            "requests_per_kilotick": measurement.requests_per_kilotick(),
            "speedup": measurement.speedup(),
        },
        result=measurement,
    )


def _run_loadtest(*, system, rate, **options) -> ExperimentReport:
    """One open-loop load run: arrivals x admission against a serving system.

    *options* are :func:`~repro.load.run_loadtest`'s other keywords.
    """
    from repro.load import run_loadtest

    spec = uid_orbit_spec(2) if system is None else _system_spec(system)
    result = run_loadtest(spec, rate=float(rate), **options)
    heading = (
        f"open-loop load on {result.spec_name} ({result.app}, {result.arrival} arrivals "
        f"at {result.rate:g} req/ktick, {result.admission} admission)"
    )
    return ExperimentReport(
        title=f"Open-loop load on {result.spec_name}",
        sections=(ReportKeyValues(title=heading, pairs=()),),
        telemetry=result.to_dict(),
        result=result,
    )


def _run_experiment(*, experiment, params) -> ExperimentReport:
    """One registered experiment; the registry checks its parameters."""
    if experiment is None:
        raise ScenarioError(
            "experiment scenarios need an 'experiment' key naming a registered "
            f"experiment ({', '.join(experiments.names())})"
        )
    try:
        spec = ExperimentSpec.from_dict({"name": experiment, "params": params})
    except (TypeError, ValueError) as exc:
        # e.g. a non-scalar parameter value; keep the no-tracebacks promise.
        raise ScenarioError(f"bad experiment parameters: {exc}") from exc
    return experiments.run(spec)


_HALT_POLICIES = tuple(policy.value for policy in CampaignHaltPolicy)

_Key = ExperimentParameter

#: Every scenario kind: its runner, and the keys it accepts besides the
#: common ones.  A key the file leaves out reaches the runner as its default.
SCENARIO_KINDS: dict[str, tuple[Callable[..., ExperimentReport], tuple[_Key, ...]]] = {
    "campaign": (
        _run_campaign,
        (
            _Key("systems", list, None, "SystemSpec dicts (default: the standard four)"),
            _Key("attacks", list, None, "attack names (default: every standard attack)"),
            _Key("app", str, "httpd", "serving app whose wire format carries the attacks"),
            _Key("workers", int, 1, "worker count on either backend", minimum=1),
            _Key("rounds_per_turn", int, 8, "lockstep rounds per turn", minimum=1),
            _Key("halt", str, "per-cell", "campaign halt policy", choices=_HALT_POLICIES),
            _Key("backend", str, "virtual", "execution tier", choices=CAMPAIGN_BACKENDS),
            _Key("seed", int, None, "root seed for keyed variations"),
        ),
    ),
    "throughput": (_run_throughput, (_Key("fleet", dict, None, "the FleetSpec dict"),)),
    "loadtest": (
        _run_loadtest,
        (
            _Key("system", dict, None, "SystemSpec dict (default: 2-variant uid orbit)"),
            _Key("app", str, "httpd", "serving app"),
            _Key("arrival", str, "poisson", "arrival process"),
            _Key("arrival_params", dict, None, "arrival process parameters"),
            _Key("rate", float, 8.0, "offered load in requests per kilotick"),
            _Key("requests", int, 16, "benign requests offered", minimum=1),
            _Key("admission", str, "accept-all", "admission policy"),
            _Key("admission_params", dict, None, "admission policy parameters"),
            _Key("seed", int, None, "root seed of every draw"),
            _Key("attacks", list, [], "attack kinds offered after the benign stream"),
            _Key("migrate_after", int, None, "checkpoint/restore point", minimum=0),
        ),
    ),
    "experiment": (
        _run_experiment,
        (
            _Key("experiment", str, None, "registered experiment name"),
            _Key("params", dict, {}, "the experiment's parameters"),
        ),
    ),
}

#: The keys every scenario kind accepts.
_COMMON_PARAMETERS = (
    _Key("scenario", str, None, "the scenario kind"),
    _Key("description", str, "", "free text for the reader"),
    _Key("output", str, "text", "rendering", choices=REPORT_STYLES),
)


def run_scenario(data: Mapping[str, Any], **overrides: Any) -> ExperimentReport:
    """Run one loaded scenario; its report's telemetry gains ``wall_seconds``.

    *overrides* (``backend``, ``workers``, ``seed``; ``None`` means not given)
    replace the file's keys, or the ``experiment`` kind's parameters, and are
    checked like them.
    """
    kind = data["scenario"]
    if not isinstance(kind, str) or kind not in SCENARIO_KINDS:
        raise ScenarioError(
            f"unknown scenario kind {kind!r}; known kinds: {', '.join(sorted(SCENARIO_KINDS))}"
        )
    runner, parameters = SCENARIO_KINDS[kind]
    check_parameters(kind, (*_COMMON_PARAMETERS, *parameters), data, kind="scenario")
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if kind == "experiment":
        data = {**data, "params": {**data.get("params", {}), **overrides}}
    else:
        data = {**data, **check_parameters(kind, parameters, overrides, kind="scenario")}
    started = time.perf_counter()
    report = runner(**{p.name: data.get(p.name, p.default) for p in parameters})
    report.telemetry.setdefault("wall_seconds", round(time.perf_counter() - started, 6))
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _print_listing(rows: Sequence[Mapping[str, str]]) -> int:
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
        print(json.dumps(rows, indent=2))
        return 0
    return _print_listing(
        [
            {
                **row,
                "parameters": ", ".join(
                    f"{p['name']}:{p['type']}={p['default']!r}" for p in row["parameters"]
                ),
            }
            for row in rows
        ]
    )


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


def _experiment_scenario(arguments) -> dict[str, Any]:
    """The ``experiment`` scenario that ``repro experiment NAME ...`` runs."""
    params = _parse_set_params(arguments.set or [])
    if arguments.corpus_dir is not None:
        params.setdefault("corpus_dir", str(arguments.corpus_dir))
    if arguments.smoke:
        params = {**experiments.smoke_spec(arguments.name).params_dict(), **params}
    return {"scenario": "experiment", "experiment": arguments.name, "params": params}


def _command_corpus(arguments) -> int:
    """``repro corpus generate``: write a seeded scenario corpus to disk."""
    from repro.corpus import generate_corpus, write_corpus

    records = generate_corpus(arguments.seed, records=arguments.records)
    out_dir = write_corpus(records, arguments.out, seed=arguments.seed)
    print(f"wrote {len(records)} scenario records to {out_dir}")
    return 0


def _reported_errors() -> tuple[type[Exception], ...]:
    """The errors ``main`` reports as an ``error:`` line instead of a traceback.

    An ``except`` clause evaluates its tuple only once an exception reaches
    it, so a command that succeeds never imports these modules.
    """
    from repro.apps.catalog import UnknownAppError
    from repro.corpus.records import CorpusError
    from repro.engine.procpool import WorkerError
    from repro.interpose import InterpositionError
    from repro.load import LoadError

    return (
        ScenarioError,
        VariationRegistryError,
        ExperimentRegistryError,
        CorpusError,
        InterpositionError,
        UnknownAppError,
        LoadError,
        # A process-backend cell died: its message carries the worker-side
        # traceback the pool marshalled back.
        WorkerError,
    )


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

    # The flags `run` and `experiment` share: the output format, and
    # overrides of the scenario's backend, worker count and seed.
    scenario_flags = argparse.ArgumentParser(add_help=False)
    scenario_flags.add_argument(
        "--output",
        choices=REPORT_STYLES,
        default=None,
        help="report rendering (default: the scenario's 'output', else text)",
    )
    scenario_flags.add_argument(
        "--backend",
        choices=CAMPAIGN_BACKENDS,
        default=None,
        help="override the execution backend: virtual = in-process scheduler, "
        "process = OS worker processes",
    )
    scenario_flags.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="K",
        help="override the worker count on either backend",
    )
    scenario_flags.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="override the root seed of keyed variations and seeded draws",
    )

    run_parser = subparsers.add_parser(
        "run", parents=[scenario_flags], help="run a scenario JSON file"
    )
    run_parser.add_argument("scenario", type=Path, help="path to the scenario JSON file")

    experiment_parser = subparsers.add_parser(
        "experiment", parents=[scenario_flags], help="run one registered experiment"
    )
    experiment_parser.add_argument("name", help="experiment name (see 'experiments')")
    experiment_parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="set an experiment parameter (repeatable; values parsed as JSON scalars)",
    )
    experiment_parser.add_argument(
        "--json",
        dest="output",
        action="store_const",
        const="json",
        help="shorthand for --output json",
    )
    experiment_parser.add_argument(
        "--smoke",
        action="store_true",
        help="run at the experiment's smallest meaningful parameters",
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
        return _print_listing(registry.describe())
    if arguments.command == "experiments":
        return _command_experiments(names_only=arguments.names, as_json=arguments.json)

    try:
        if arguments.command == "corpus":
            return _command_corpus(arguments)
        if arguments.command == "experiment":
            data = _experiment_scenario(arguments)
        else:
            data = load_scenario(arguments.scenario)
        report = run_scenario(
            data, backend=arguments.backend, workers=arguments.workers, seed=arguments.seed
        )
    except _reported_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.format(arguments.output or data.get("output", "text")))
    if not report.ok:
        subject = f"experiment {report.spec.name!r}" if report.spec else repr(report.title)
        print(
            f"error: {subject} failed {len(report.failed_claims)} claim(s): "
            + "; ".join(report.failed_claims),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
