"""Experiment: open-loop overload -- arrivals x admission x N, plus migration.

The paper's servers live behind real traffic, and real traffic is open
loop: requests arrive on their own schedule whether the N-variant system
keeps up or not.  This experiment sweeps seeded Poisson arrival rates from
half the calibrated service rate to several times it, across every
registered admission policy and variant count, on one campaign backend,
and checks that overload degrades *gracefully*:

* the accept-all control group never sheds (its queue, and its tail, absorb
  the whole overload);
* every shedding policy's shed fraction is non-decreasing in offered load,
  and positive once the offered rate clearly exceeds capacity;
* under overload, bounded-queue admission keeps the admitted requests' p99
  sojourn at or below the accept-all tail -- shedding buys latency;
* no benign request ever raises an alarm, and every admitted benign request
  is accounted for (completed, evicted, or aborted -- never lost).

Every sweep cell is the same picklable job on either backend, and
``tests/test_job_parity.py`` checks that both backends give a cell
byte-identical results under the shared seed.

A **migration parity** pair rides along: the same seeded keyed-UID serving
run executed straight and with a checkpoint/restore hand-off mid-run (at
an idle accept or at a halt) must serve byte-identical responses with the
same sojourn times, preserve the drawn keyed secrets, and reach the same
detection outcomes for the trailing attack suite -- moving a session
between engines is invisible to both clients and the monitor.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any

from repro.api.experiments import ExperimentReport, ReportKeyValues, ReportTable
from repro.api.spec import SystemSpec, keyed_uid_spec, uid_orbit_spec
from repro.engine.campaign import CampaignJob, run_jobs
from repro.load.driver import DEFAULT_SEED, LoadtestCell, run_loadtest

#: Offered-load multipliers (of the calibrated service rate), in sweep order.
LOAD_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)

#: The admission policies swept: display label -> (kind, parameter builder).
#: ``accept-all`` is the control group; the rest shed.
POLICY_LABELS = ("accept-all", "bounded-oldest", "bounded-newest", "token-bucket")

#: Multipliers at which a shedding policy MUST shed (clearly past capacity).
OVERLOAD_THRESHOLD = 2.0


def _policy_config(label: str, capacity: int, service_rate: float) -> tuple[str, dict]:
    if label == "accept-all":
        return "accept-all", {}
    if label == "bounded-oldest":
        return "bounded-queue", {"capacity": capacity, "drop": "oldest"}
    if label == "bounded-newest":
        return "bounded-queue", {"capacity": capacity, "drop": "newest"}
    if label == "token-bucket":
        return "token-bucket", {"rate": service_rate, "burst": float(capacity)}
    raise ValueError(f"unknown policy label {label!r}")


#: The to_dict fields a migrated run must reproduce exactly.  ``bursts``,
#: ``rounds`` and ``virtual_elapsed`` legitimately differ by the standby's
#: start-up (and the old server's shutdown); everything observable must not.
MIGRATION_PARITY_FIELDS = (
    "response_digest",
    "secret_digest",
    "attack_outcomes",
    "alarms",
    "completed",
    "offered",
    "admitted",
    "shed",
    "latency",
)


@dataclasses.dataclass
class LoadTestResult:
    """The sweep grid, the calibration point, the migration pair, the claims."""

    backend: str
    multipliers: tuple[float, ...]
    #: Calibrated service rate in requests per kilotick (from the low-load cell).
    service_rate: float
    capacity: int
    variant_counts: tuple[int, ...]
    #: ``(spec name, policy label, multiplier) -> LoadRunResult.to_dict()``.
    cells: dict[tuple[str, str, float], dict[str, Any]]
    #: Straight and migrated runs of the parity pair.
    migration_base: dict[str, Any]
    migration_moved: dict[str, Any]

    def cell(self, spec: str, policy: str, mult: float) -> dict[str, Any]:
        return self.cells[(spec, policy, mult)]

    def _spec_names(self) -> tuple[str, ...]:
        return tuple(uid_orbit_spec(n).name for n in self.variant_counts)

    @staticmethod
    def _shed_fraction(cell: dict[str, Any]) -> float:
        return cell["shed"] / cell["offered"] if cell["offered"] else 0.0

    # -- claims ------------------------------------------------------------------

    def claim_results(self) -> dict[str, bool]:
        """The graceful-degradation and migration-parity claims."""
        claims: dict[str, bool] = {}
        shedding = [label for label in POLICY_LABELS if label != "accept-all"]
        top = self.multipliers[-1]
        backend = self.backend
        grid = self.cells
        claims[f"{backend}: accept-all sheds nothing at any offered load"] = all(
            cell["shed"] == 0
            for (_, policy, _), cell in grid.items()
            if policy == "accept-all"
        )
        claims[
            f"{backend}: shed fraction is non-decreasing in offered load "
            "for every shedding policy"
        ] = all(
            self._shed_fraction(grid[(spec, policy, lo)])
            <= self._shed_fraction(grid[(spec, policy, hi)])
            for spec in self._spec_names()
            for policy in shedding
            for lo, hi in zip(self.multipliers, self.multipliers[1:])
        )
        claims[
            f"{backend}: every shedding policy sheds once offered load "
            f"reaches {OVERLOAD_THRESHOLD:g}x capacity"
        ] = all(
            grid[(spec, policy, mult)]["shed"] > 0
            for spec in self._spec_names()
            for policy in shedding
            for mult in self.multipliers
            if mult >= OVERLOAD_THRESHOLD
        )
        claims[
            f"{backend}: bounded-queue admission keeps the admitted p99 at or "
            "below accept-all's under overload"
        ] = all(
            (grid[(spec, policy, top)]["latency"]["p99"] or 0)
            <= (grid[(spec, "accept-all", top)]["latency"]["p99"] or 0)
            for spec in self._spec_names()
            for policy in ("bounded-oldest", "bounded-newest")
        )
        claims[f"{backend}: zero benign alarms across the whole sweep"] = all(
            cell["alarms"] == 0 for cell in grid.values()
        )
        claims[
            f"{backend}: every admitted benign request is accounted for "
            "(completed + evicted + aborted == admitted)"
        ] = all(
            cell["completed"] + cell["evicted"] + cell["aborted"]
            == cell["admitted"]
            for cell in grid.values()
        )
        claims["migration: the hand-off actually happened mid-run"] = bool(
            self.migration_moved["migrated"]
        ) and not self.migration_base["migrated"]
        for field in MIGRATION_PARITY_FIELDS:
            claims[
                f"migration: {field} is identical with and without the hand-off"
            ] = self.migration_base[field] == self.migration_moved[field]
        return claims

    # -- report ------------------------------------------------------------------

    def to_report(self) -> ExperimentReport:
        """The sweep table, the calibration point and the claims."""
        rows = []
        for spec in self._spec_names():
            for policy in POLICY_LABELS:
                for mult in self.multipliers:
                    cell = self.cell(spec, policy, mult)
                    latency = cell["latency"]
                    rows.append(
                        (
                            spec,
                            policy,
                            f"{mult:g}x",
                            f"{cell['rate']:.2f}",
                            f"{cell['shed']}/{cell['offered']}",
                            cell["completed"],
                            cell["queue_high_water"],
                            latency["p50"] if latency["p50"] is not None else "-",
                            latency["p99"] if latency["p99"] is not None else "-",
                            latency["p999"] if latency["p999"] is not None else "-",
                        )
                    )
        sections: list = [
            ReportTable(
                title=f"Open-loop sweep ({self.backend} backend; rates in req/ktick)",
                headers=(
                    "configuration",
                    "admission",
                    "load",
                    "rate",
                    "shed/offered",
                    "done",
                    "q-high",
                    "p50",
                    "p99",
                    "p999",
                ),
                rows=tuple(rows),
            )
        ]
        pairs = [
            ("calibrated service rate (req/ktick)", f"{self.service_rate:.2f}"),
            ("bounded-queue capacity", str(self.capacity)),
            ("offered-load multipliers", ", ".join(f"{m:g}x" for m in self.multipliers)),
            ("migration spec", self.migration_base["spec"]),
            (
                "migration responses identical",
                str(
                    self.migration_base["response_digest"]
                    == self.migration_moved["response_digest"]
                ),
            ),
            (
                "migration secrets preserved",
                str(
                    self.migration_base["secret_digest"]
                    == self.migration_moved["secret_digest"]
                ),
            ),
        ]
        sections.append(ReportKeyValues(title="Calibration and migration", pairs=tuple(pairs)))
        telemetry: dict = {
            "sweep_cells": len(self._spec_names())
            * len(POLICY_LABELS)
            * len(self.multipliers),
            "service_rate": round(self.service_rate, 3),
            "total_rounds": sum(cell["rounds"] for cell in self.cells.values()),
            "total_virtual_elapsed": sum(
                cell["virtual_elapsed"] for cell in self.cells.values()
            ),
        }
        return ExperimentReport(
            title="Open-loop load: arrivals x admission x N, with session migration",
            sections=tuple(sections),
            claims=self.claim_results(),
            telemetry=telemetry,
            result=self,
        )


def _cell_kwargs(
    spec: SystemSpec,
    *,
    policy_label: str,
    capacity: int,
    service_rate: float,
    mult: float,
    requests: int,
    seed: int,
    name: str,
) -> dict[str, Any]:
    kind, params = _policy_config(policy_label, capacity, service_rate)
    return {
        "spec": spec,
        "app": "httpd",
        "arrival": "poisson",
        "rate": mult * service_rate,
        "requests": requests,
        "admission": kind,
        "admission_params": params,
        "seed": seed,
        "name": name,
    }


def run(
    *,
    backend: str = "virtual",
    workers: int = 4,
    requests: int = 24,
    rate_steps: int = 4,
    max_variants: int = 3,
    capacity: int = 3,
    seed: int = DEFAULT_SEED,
) -> LoadTestResult:
    """Calibrate, sweep, and run the migration parity pair.

    A constant-rate low-load cell calibrates the service rate; the sweep
    offers ``rate_steps`` multiples of it (from :data:`LOAD_MULTIPLIERS`)
    through every admission policy at N in ``2..max_variants``, on
    ``backend``.  ``requests`` is the benign stream length per
    cell, ``capacity`` the bounded-queue depth (and token-bucket burst), and
    ``seed`` the root every cell's determinism flows from.
    """
    if not 1 <= rate_steps <= len(LOAD_MULTIPLIERS):
        raise ValueError(
            f"rate_steps must be in 1..{len(LOAD_MULTIPLIERS)}, got {rate_steps}"
        )
    if max_variants < 2:
        raise ValueError(f"max_variants must be >= 2, got {max_variants}")
    multipliers = LOAD_MULTIPLIERS[:rate_steps]
    variant_counts = tuple(range(2, max_variants + 1))

    # Calibration: constant trickle arrivals, no queueing to speak of -- the
    # mean sojourn is the intrinsic per-request service time.
    calibration = run_loadtest(
        uid_orbit_spec(2),
        app="httpd",
        arrival="constant",
        rate=1.0,
        requests=max(4, min(requests, 8)),
        seed=seed,
        name="loadtest-calibration",
    )
    service_rate = 1000.0 / calibration.latency.mean

    sweep = {}
    for n in variant_counts:
        spec = uid_orbit_spec(n)
        for label in POLICY_LABELS:
            for mult in multipliers:
                key = (spec.name, label, mult)
                sweep[key] = _cell_kwargs(
                    spec,
                    policy_label=label,
                    capacity=capacity,
                    service_rate=service_rate,
                    mult=mult,
                    requests=requests,
                    seed=seed,
                    name=f"loadtest-{n}-{label}-{mult:g}x",
                )

    ordered = sorted(sweep)
    jobs = [
        CampaignJob(sweep[key]["name"], functools.partial(LoadtestCell, sweep[key]))
        for key in ordered
    ]
    campaign = run_jobs(jobs, backend=backend, workers=workers)
    cells = {key: job_result.value for key, job_result in zip(ordered, campaign.jobs)}

    parity_spec = keyed_uid_spec(2, key_bits=8)
    parity_kwargs: dict[str, Any] = dict(
        app="httpd",
        arrival="poisson",
        rate=service_rate,
        requests=max(6, min(requests, 10)),
        seed=seed,
        attacks=("uid-overwrite", "pointer-overwrite"),
    )
    migration_base = run_loadtest(
        parity_spec, name="loadtest-straight", **parity_kwargs
    ).to_dict()
    migration_moved = run_loadtest(
        parity_spec,
        name="loadtest-migrated",
        migrate_after=max(2, parity_kwargs["requests"] // 2),
        **parity_kwargs,
    ).to_dict()

    return LoadTestResult(
        backend=backend,
        multipliers=multipliers,
        service_rate=service_rate,
        capacity=capacity,
        variant_counts=variant_counts,
        cells=cells,
        migration_base=migration_base,
        migration_moved=migration_moved,
    )
