"""First-class experiments: the registry, the shared typed report, renderers.

PR 2 made *systems* declarative (``SystemSpec`` + the variation registry);
this module does the same for *experiments*.  Every paper table/figure driver
under :mod:`repro.analysis.experiments` registers its ``run`` here under a
stable name with a typed parameter list, and every run's ``to_report()``
returns the same :class:`ExperimentReport` -- structured sections (tables
and key/value blocks), named claim results, and timing/engine telemetry --
instead of a bespoke ``format()`` string.  That one shape is what makes experiments data:

* ``python -m repro experiment table3 --set requests=20`` runs any registered
  experiment from the shell;
* a ``{"scenario": "experiment", "experiment": "ablations"}`` JSON file runs
  it as a scenario, so new experiments need no new CLI branch;
* the benchmark harness iterates the registry generically and persists each
  report as ``BENCH_<name>.json``.

Experiment modules are imported lazily (each registry entry carries a
``"module:run"`` loader), so listing experiments stays cheap and the
registry can live in :mod:`repro.api` without dragging the whole analysis
layer into every import of the scenario API.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import time
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Union

from repro.api.spec import ExperimentSpec
from repro.engine.policy import CAMPAIGN_BACKENDS

# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class ExperimentRegistryError(ValueError):
    """Base class for experiment resolution failures."""


class UnknownExperimentError(ExperimentRegistryError):
    """A spec named an experiment the registry does not know."""

    def __init__(self, name: str, known: list[str]):
        super().__init__(
            f"unknown experiment {name!r}; registered experiments: "
            f"{', '.join(known) or '(none)'}"
        )
        self.name = name
        self.known = known


class ExperimentParameterError(ExperimentRegistryError):
    """Parameters do not match what an experiment (or a scenario *kind*) declares."""

    def __init__(self, name: str, reason: str, *, kind: str = "experiment"):
        super().__init__(f"bad parameters for {kind} {name!r}: {reason}")
        self.name = name


# ---------------------------------------------------------------------------
# Report sections
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ReportTable:
    """One table of an experiment report: headers plus homogeneous rows."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "headers", tuple(str(h) for h in self.headers))
        object.__setattr__(
            self,
            "rows",
            tuple(tuple(str(cell) for cell in row) for row in self.rows),
        )
        for row in self.rows:
            if len(row) != len(self.headers):
                raise ValueError(
                    f"table {self.title!r}: row {row!r} does not have "
                    f"{len(self.headers)} columns"
                )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (the ``kind`` key discriminates sections)."""
        return {
            "kind": "table",
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
        }

    def render(self, style: str = "text") -> str:
        """Render this table in the requested style."""
        from repro.analysis.tables import render_table, render_table_markdown

        if style == "markdown":
            return render_table_markdown(self.headers, self.rows, title=self.title)
        return render_table(self.headers, self.rows, title=self.title)


@dataclasses.dataclass(frozen=True)
class ReportKeyValues:
    """One key/value block of an experiment report."""

    title: str
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "pairs",
            tuple((str(key), str(value)) for key, value in self.pairs),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (the ``kind`` key discriminates sections)."""
        return {
            "kind": "key-values",
            "title": self.title,
            "pairs": [list(pair) for pair in self.pairs],
        }

    def render(self, style: str = "text") -> str:
        """Render this block in the requested style."""
        from repro.analysis.tables import render_key_values, render_key_values_markdown

        if style == "markdown":
            return render_key_values_markdown(self.pairs, title=self.title)
        return render_key_values(self.pairs, title=self.title)


ReportSection = Union[ReportTable, ReportKeyValues]

#: Rendering styles :meth:`ExperimentReport.format` accepts.
REPORT_STYLES = ("text", "json", "markdown")


# ---------------------------------------------------------------------------
# The shared report
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ExperimentReport:
    """The one result type every registered experiment returns.

    ``sections`` carry the renderable data (the paper's tables and traces),
    ``claims`` the named boolean results the reproduction asserts, and
    ``telemetry`` whatever timing/engine accounting the run produced (the
    registry adds wall-clock seconds).  ``result`` is the experiment module's
    underlying structured object for callers that need the full detail (the
    benchmark assertions, the parity tests); it is deliberately excluded from
    the JSON form, which must stay schema-stable.
    """

    title: str
    sections: tuple[ReportSection, ...] = ()
    claims: dict[str, bool] = dataclasses.field(default_factory=dict)
    telemetry: dict[str, Any] = dataclasses.field(default_factory=dict)
    result: Any = None
    spec: Optional[ExperimentSpec] = None

    def __post_init__(self) -> None:
        self.sections = tuple(self.sections)

    @property
    def ok(self) -> bool:
        """True when every claim holds (an empty claim set counts as ok)."""
        return all(self.claims.values())

    @property
    def failed_claims(self) -> list[str]:
        """The names of the claims that did not hold."""
        return [claim for claim, holds in self.claims.items() if not holds]

    def rows(self) -> list[tuple[str, ...]]:
        """Every table row in the report, in section order (for parity tests)."""
        tables = [s for s in self.sections if isinstance(s, ReportTable)]
        return [row for table in tables for row in table.rows]

    # -- renderers -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The schema-stable JSON representation (NaN telemetry becomes ``null``)."""
        return {
            "experiment": self.spec.name if self.spec is not None else None,
            "params": self.spec.params_dict() if self.spec is not None else {},
            "title": self.title,
            "ok": self.ok,
            "claims": dict(self.claims),
            "sections": [section.to_dict() for section in self.sections],
            "telemetry": _finite_or_none(self.telemetry),
        }

    def to_json(self) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=2)

    def format(self, style: str = "text") -> str:
        """Render the full report (sections, then claims, then telemetry; or :meth:`to_json`)."""
        if style not in REPORT_STYLES:
            raise ValueError(
                f"style must be one of {', '.join(REPORT_STYLES)}, got {style!r}"
            )
        if style == "json":
            return self.to_json()
        blocks = [section.render(style) for section in self.sections]
        if self.claims:
            if style == "markdown":
                lines = ["### Claims", ""]
                lines.extend(
                    f"- [{'x' if holds else ' '}] {claim}"
                    for claim, holds in self.claims.items()
                )
            else:
                lines = ["Claims:"]
                lines.extend(
                    f"  [{'ok' if holds else 'FAIL'}] {claim}"
                    for claim, holds in self.claims.items()
                )
            blocks.append("\n".join(lines))
        if self.telemetry:
            pairs = tuple((key, value) for key, value in self.telemetry.items())
            blocks.append(ReportKeyValues(title="Telemetry", pairs=pairs).render(style))
        return "\n\n".join(blocks)


def _finite_or_none(value: Any) -> Any:
    """*value* with every NaN or infinite float inside it replaced by ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, Mapping):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ExperimentParameter:
    """One declared parameter of an experiment: name, type, default.

    ``minimum`` (for numbers) and ``choices`` bound what a ``--set`` flag or a
    scenario file may pass, so an out-of-range value fails before anything runs.
    """

    name: str
    kind: type
    default: Any
    description: str = ""
    minimum: Optional[float] = None
    choices: tuple[Any, ...] = ()

    def problem(self, value: Any) -> Optional[str]:
        """Why *value* is not usable for this parameter (``None`` when it is).

        ``bool`` is only accepted where ``bool`` is declared, even though
        Python subclasses ``int`` with it: in a JSON scenario file ``true``
        where a count belongs is always a mistake.
        """
        kinds = (int, float) if self.kind is float else self.kind
        if not isinstance(value, kinds) or isinstance(value, bool) != (self.kind is bool):
            return (
                f"{self.name} must be {self.kind.__name__}, "
                f"got {type(value).__name__} {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            return f"{self.name} must be at least {self.minimum}, got {value!r}"
        if self.choices and value not in self.choices:
            return (
                f"{self.name} must be one of {', '.join(map(str, self.choices))}, "
                f"got {value!r}"
            )
        return None


def check_parameters(
    name: str,
    parameters: Sequence[ExperimentParameter],
    params: Mapping[str, Any],
    *,
    kind: str = "experiment",
) -> dict[str, Any]:
    """Check *params* against the declared *parameters* of *name*; return them.

    Unknown names, type mismatches and values outside a parameter's
    ``minimum``/``choices`` are :class:`ExperimentParameterError`\\ s.  The
    experiment registry and the CLI's scenario kinds both check input here.
    """
    declared = {parameter.name: parameter for parameter in parameters}
    unknown = sorted(set(params) - set(declared))
    if unknown:
        raise ExperimentParameterError(
            name,
            f"unknown parameters: {', '.join(unknown)}; accepted: "
            f"{', '.join(declared) or '(none)'}",
            kind=kind,
        )
    for key, value in params.items():
        problem = declared[key].problem(value)
        if problem is not None:
            raise ExperimentParameterError(name, problem, kind=kind)
    return dict(params)


@dataclasses.dataclass(frozen=True)
class RegisteredExperiment:
    """One registry entry: name, lazy runner, parameters, documentation.

    ``runner`` is either a ``"module:function"`` loader string (preferred for
    the built-in experiments, which name each module's ``run``: listing the
    registry then costs no analysis imports) or a callable; either way it
    takes the declared parameters as keyword arguments and returns a result
    whose ``to_report()`` gives an :class:`ExperimentReport`.
    ``smoke_params`` are the smallest parameters the experiment runs
    meaningfully with -- what ``--smoke`` and the ``experiments-smoke`` CI
    target use.
    """

    name: str
    runner: Union[str, Callable[..., Any]]
    description: str = ""
    parameters: tuple[ExperimentParameter, ...] = ()
    smoke_params: tuple[tuple[str, Any], ...] = ()

    def resolve(self) -> Callable[..., Any]:
        """Import (if needed) and return the runner callable."""
        if callable(self.runner):
            return self.runner
        module_name, _, attribute = self.runner.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, attribute)


class ExperimentRegistry:
    """Resolves experiment names to validated, timed report-producing runs."""

    def __init__(self) -> None:
        self._entries: dict[str, RegisteredExperiment] = {}

    # -- registration ----------------------------------------------------------

    def register(
        self,
        name: str,
        runner: Union[str, Callable[..., Any]],
        *,
        description: str = "",
        parameters: Sequence[ExperimentParameter] = (),
        smoke_params: Optional[Mapping[str, Any]] = None,
    ) -> RegisteredExperiment:
        """Register *runner* under *name* (re-registering replaces the entry)."""
        entry = RegisteredExperiment(
            name=name,
            runner=runner,
            description=description,
            parameters=tuple(parameters),
            smoke_params=tuple(sorted((smoke_params or {}).items())),
        )
        self._entries[name] = entry
        return entry

    # -- resolution ------------------------------------------------------------

    def names(self) -> list[str]:
        """The registered experiment names, sorted."""
        return sorted(self._entries)

    def get(self, name: str) -> RegisteredExperiment:
        """Resolve *name* to its entry."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownExperimentError(name, self.names()) from None

    def validate(self, spec: ExperimentSpec) -> dict[str, Any]:
        """The runner's keyword arguments, checked by :func:`check_parameters`."""
        return check_parameters(spec.name, self.get(spec.name).parameters, spec.params_dict())

    def smoke_spec(self, name: str) -> ExperimentSpec:
        """The smallest meaningful spec for *name* (the CI smoke configuration)."""
        entry = self.get(name)
        return ExperimentSpec(name=name, params=entry.smoke_params)

    def run(
        self,
        spec: Union[ExperimentSpec, str],
        params: Optional[Mapping[str, Any]] = None,
    ) -> ExperimentReport:
        """Run one experiment and return its report.

        *spec* may be a full :class:`ExperimentSpec` or a bare name (with
        optional *params*).  The registry validates the parameters, times the
        run and its ``to_report()``, and stamps the report with the spec and
        wall-clock telemetry -- every execution path (CLI, scenarios,
        benchmarks, library callers) goes through here.
        """
        if isinstance(spec, str):
            spec = ExperimentSpec(name=spec, params=tuple(sorted((params or {}).items())))
        elif params is not None:
            raise TypeError("pass parameters inside the ExperimentSpec, not separately")
        kwargs = self.validate(spec)
        runner = self.get(spec.name).resolve()
        started = time.perf_counter()
        result = runner(**kwargs)
        if not hasattr(result, "to_report"):
            raise ExperimentRegistryError(
                f"experiment {spec.name!r} returned {type(result).__name__}, "
                f"which has no to_report()"
            )
        report = result.to_report()
        elapsed = time.perf_counter() - started
        if not isinstance(report, ExperimentReport):
            raise ExperimentRegistryError(
                f"experiment {spec.name!r} reported {type(report).__name__}, "
                f"not an ExperimentReport"
            )
        report.spec = spec
        report.telemetry.setdefault("wall_seconds", round(elapsed, 6))
        return report

    def describe(self) -> list[dict[str, Any]]:
        """JSON-ready rows for the CLI's ``experiments`` listing, by name."""
        return [
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
            for _, entry in sorted(self._entries.items())
        ]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[RegisteredExperiment]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# The default registry: every paper table/figure plus the ablation suite
# ---------------------------------------------------------------------------

_EXPERIMENTS = "repro.analysis.experiments"

#: The default registry.  Each entry's runner is its module's ``run``, and
#: each declared parameter is one of its keyword options, with its default.
experiments = ExperimentRegistry()

experiments.register(
    "table1",
    f"{_EXPERIMENTS}.table1:run",
    description="Table 1: reexpression functions and their inverse/disjointedness properties",
    parameters=(
        ExperimentParameter(
            "sample_count", int, 2048, "domain samples per property check", minimum=1
        ),
    ),
    smoke_params={"sample_count": 256},
)
experiments.register(
    "table2",
    f"{_EXPERIMENTS}.table2:run",
    description="Table 2: detection system calls exercised live (benign and attack halves)",
)
experiments.register(
    "table3",
    f"{_EXPERIMENTS}.table3:run",
    description="Table 3: throughput/latency of the four configurations (virtual-time model)",
    parameters=(
        ExperimentParameter("requests", int, 40, "benign requests per configuration", minimum=1),
    ),
    smoke_params={"requests": 10},
)
experiments.register(
    "figure1",
    f"{_EXPERIMENTS}.figure1:run",
    description="Figure 1: two-variant address partitioning (benign equivalence + injection)",
    parameters=(
        ExperimentParameter("benign_requests", int, 8, "benign requests driven", minimum=1),
    ),
    smoke_params={"benign_requests": 4},
)
experiments.register(
    "figure2",
    f"{_EXPERIMENTS}.figure2:run",
    description="Figure 2: the data-diversity pipeline, model-level and end-to-end",
)
experiments.register(
    "section4",
    f"{_EXPERIMENTS}.section4:run",
    description="Section 4: automatic source-transformation effort accounting",
)
experiments.register(
    "detection",
    f"{_EXPERIMENTS}.detection:run",
    description="The full detection matrix and the paper's security claims",
    parameters=(
        ExperimentParameter(
            "backend",
            str,
            "virtual",
            "campaign execution tier: virtual or process",
            choices=CAMPAIGN_BACKENDS,
        ),
        ExperimentParameter("workers", int, 1, "campaign scheduler worker count", minimum=1),
    ),
    smoke_params={"workers": 8},
)
experiments.register(
    "nscaling",
    f"{_EXPERIMENTS}.nscaling:run",
    description=(
        "N-scaling sweep: uid_orbit_spec(n) and address_orbit_spec(n) over a "
        "variant-count range, detection guarantee and lockstep cost vs N"
    ),
    parameters=(
        ExperimentParameter("min_variants", int, 2, "smallest variant count swept", minimum=2),
        ExperimentParameter("max_variants", int, 6, "largest variant count swept", minimum=2),
        ExperimentParameter(
            "requests", int, 12, "benign requests per configuration", minimum=1
        ),
        ExperimentParameter("workers", int, 4, "campaign scheduler worker count", minimum=1),
    ),
    smoke_params={"min_variants": 2, "max_variants": 3, "requests": 6, "workers": 4},
)
experiments.register(
    "entropy",
    f"{_EXPERIMENTS}.entropy:run",
    description=(
        "Key entropy vs probes-to-first-alarm: brute-force attacker strategies "
        "against keyed fleets, plus the keyed-UID deterministic-detection control"
    ),
    parameters=(
        ExperimentParameter("min_variants", int, 2, "smallest variant count swept", minimum=2),
        ExperimentParameter("max_variants", int, 4, "largest variant count swept", minimum=2),
        ExperimentParameter("min_key_bits", int, 2, "smallest key entropy swept", minimum=1),
        ExperimentParameter("max_key_bits", int, 6, "largest key entropy swept", minimum=1),
        ExperimentParameter("trials", int, 20, "independent keyed games per cell", minimum=1),
        ExperimentParameter("seed", int, 20080625, "root seed every draw derives from"),
        ExperimentParameter(
            "backend",
            str,
            "virtual",
            "campaign execution tier: virtual or process",
            choices=CAMPAIGN_BACKENDS,
        ),
        ExperimentParameter("workers", int, 4, "campaign scheduler worker count", minimum=1),
    ),
    smoke_params={"max_variants": 3, "max_key_bits": 4, "trials": 20},
)
experiments.register(
    "corpus",
    f"{_EXPERIMENTS}.corpus:run",
    description=(
        "Generated scenario corpus vs the analytic guarantee: seeded mutation "
        "matrix over scheme x N x mutation class, graded record by record"
    ),
    parameters=(
        ExperimentParameter("records", int, 240, "corpus size after trimming", minimum=1),
        ExperimentParameter("seed", int, 20080625, "root seed the generator derives from"),
        ExperimentParameter(
            "backend",
            str,
            "virtual",
            "campaign execution tier: virtual or process",
            choices=CAMPAIGN_BACKENDS,
        ),
        ExperimentParameter("workers", int, 8, "scheduler/pool worker count", minimum=1),
        ExperimentParameter(
            "corpus_dir", str, "", "load a written corpus instead of generating"
        ),
    ),
    smoke_params={"records": 60, "workers": 4},
)
experiments.register(
    "apps",
    f"{_EXPERIMENTS}.apps:run",
    description=(
        "Cross-app generalisation: the detection matrix and benign workload "
        "sweeps on httpd and ftpd under stacked fd+address+uid orbit "
        "diversity at N in {2,3}"
    ),
    parameters=(
        ExperimentParameter(
            "backend",
            str,
            "virtual",
            "campaign execution tier: virtual or process",
            choices=CAMPAIGN_BACKENDS,
        ),
        ExperimentParameter("workers", int, 4, "campaign worker count", minimum=1),
        ExperimentParameter(
            "requests", int, 16, "benign requests per workload configuration", minimum=1
        ),
    ),
    smoke_params={"requests": 8},
)
experiments.register(
    "loadtest",
    f"{_EXPERIMENTS}.loadtest:run",
    description=(
        "Open-loop load: seeded arrival processes x admission policies x N "
        "with sojourn percentiles, graceful-overload claims, and a session "
        "checkpoint/migration parity pair"
    ),
    parameters=(
        ExperimentParameter(
            "backend",
            str,
            "virtual",
            "campaign execution tier: virtual or process",
            choices=CAMPAIGN_BACKENDS,
        ),
        ExperimentParameter("workers", int, 4, "campaign worker count", minimum=1),
        ExperimentParameter("requests", int, 24, "benign requests per sweep cell", minimum=1),
        ExperimentParameter(
            "rate_steps",
            int,
            4,
            "offered-load multipliers swept (prefix of 0.5/1/2/4x)",
            minimum=1,
        ),
        ExperimentParameter("max_variants", int, 3, "largest variant count swept", minimum=2),
        ExperimentParameter(
            "capacity", int, 3, "bounded-queue depth and token-bucket burst"
        ),
        ExperimentParameter("seed", int, 20080625, "root seed every cell derives from"),
    ),
    smoke_params={
        "requests": 12,
        "rate_steps": 3,
        "max_variants": 2,
    },
)
experiments.register(
    "ablations",
    f"{_EXPERIMENTS}.ablations:run",
    description="Design-choice ablations: detection calls, reexpression mask, unshared files",
    parameters=(
        ExperimentParameter(
            "user_space_uses", int, 5, "UID uses between corruption and kernel call", minimum=1
        ),
        ExperimentParameter(
            "requests", int, 4, "benign requests in the mask ablation", minimum=1
        ),
    ),
    smoke_params={"user_space_uses": 3, "requests": 2},
)
