"""Experiment: key entropy vs probes-to-first-alarm under keyed schemes.

The paper's detection matrix is boolean because its attacker knows every
variant's layout.  The keyed schemes (PR 7) withhold the layout behind
``key_bits`` of secret entropy, so detection becomes a game: the attacker
probes candidate layouts, and the quantity of interest is how many probes
the fleet tolerates before the first partial hit raises an alarm.

This experiment plays that game along three axes:

* **the entropy curve** -- the exhaustive ascending sweep (the analytic
  baseline) against ``keyed-orbit`` fleets over N x key_bits, every trial a
  campaign cell, all cells batched through one scheduler pass.  Expected
  probes-to-first-alarm is ``(2**k - N) / (N + 1) + 1`` and must grow with
  ``k`` at every N;
* **strategy comparison** -- exhaustive sweep vs random probing vs a
  partial-knowledge leak (and the leak against the slide-extended
  ``keyed-address`` scheme) at one fixed configuration;
* **the keyed-UID control** -- keyed masks randomise the *values*, not the
  detection: a seeded campaign of every standard UID attack against
  ``keyed_uid_spec(n)`` must keep the paper's deterministic guarantee.

Every random draw flows from one root ``seed`` through
:func:`~repro.api.seeding.derive_seed`, so the whole report -- including the
curve -- replays identically, which the experiment also claims by re-running
its first cell batch and comparing outcomes.
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.analysis.experiments.detection import OUTSIDE_GUARANTEE
from repro.api.campaign import CampaignReport, run_campaign
from repro.api.experiments import (
    ExperimentParameterError,
    ExperimentReport,
    ReportKeyValues,
    ReportTable,
)
from repro.api.seeding import derive_seed
from repro.api.spec import keyed_uid_spec
from repro.attacks.outcomes import OutcomeKind
from repro.security.attacker import (
    AttackTrace,
    ExhaustiveSweepAttacker,
    PartialKnowledgeAttacker,
    RandomProbingAttacker,
    expected_exhaustive_probes,
    plan_trial,
    run_probe_batch,
)

#: Default root seed: the paper's publication date (DSN 2008, June 25).
DEFAULT_SEED = 20080625


@dataclasses.dataclass
class EntropyPoint:
    """One (N, key_bits) cell of the curve: all its trials as one trace."""

    num_variants: int
    key_bits: int
    trace: AttackTrace

    @property
    def mean_probes(self) -> float:
        """Sample mean probes-to-first-alarm over the point's trials."""
        return self.trace.mean_probes_to_first_alarm

    @property
    def analytic_probes(self) -> float:
        """The uniform-key expectation the sample mean estimates."""
        return expected_exhaustive_probes(self.key_bits, self.num_variants)


@dataclasses.dataclass
class EntropyResult:
    """The full game: curve, strategy comparison, UID control, replay check."""

    points: list[EntropyPoint]
    comparisons: list[tuple[str, AttackTrace]]
    uid_report: CampaignReport
    uid_guarantee: dict[int, bool]
    replay_identical: bool
    seed: int
    backend: str

    def curves(self) -> dict[int, list[EntropyPoint]]:
        """The points grouped per N, ordered by key_bits."""
        grouped: dict[int, list[EntropyPoint]] = {}
        for point in self.points:
            grouped.setdefault(point.num_variants, []).append(point)
        return {
            n: sorted(ps, key=lambda p: p.key_bits) for n, ps in sorted(grouped.items())
        }

    def claim_results(self) -> dict[str, bool]:
        """Entropy must buy probes, variants must buy detection, keys replay."""
        curves = {
            n: [p.mean_probes for p in ps] for n, ps in self.curves().items()
        }
        sweep_means = [statistics.fmean(curve) for _, curve in sorted(curves.items())]
        comparison = dict(self.comparisons)
        all_traces = [p.trace for p in self.points] + [t for _, t in self.comparisons]
        return {
            "mean probes-to-first-alarm grows with key entropy at every N": bool(curves)
            and all(
                earlier < later
                for curve in curves.values()
                for earlier, later in zip(curve, curve[1:])
            ),
            "averaged over the sweep, more variants need fewer probes": all(
                earlier > later for earlier, later in zip(sweep_means, sweep_means[1:])
            ),
            "the exhaustive sweep is always caught (alarm rate 1.0)": all(
                point.trace.alarm_rate == 1.0 for point in self.points
            ),
            "no probe sequence ever reaches an undetected compromise": all(
                trace.successes == 0 for trace in all_traces
            ),
            "a partial-knowledge leak needs fewer probes than the blind sweep": (
                comparison["partial-knowledge"].mean_probes_to_first_alarm
                < comparison["exhaustive-sweep"].mean_probes_to_first_alarm
            ),
            "keyed UID masks keep the deterministic detection guarantee": bool(
                self.uid_guarantee
            )
            and all(self.uid_guarantee.values()),
            "seeded trials replay identically": self.replay_identical,
        }

    def to_report(self) -> ExperimentReport:
        """The game as a shared experiment report."""
        curve_rows = []
        for point in self.points:
            curve_rows.append(
                (
                    str(point.num_variants),
                    str(point.key_bits),
                    str(point.trace.trials),
                    f"{point.mean_probes:.2f}",
                    f"{point.analytic_probes:.2f}",
                    f"{point.trace.alarm_rate:.2f}",
                    str(point.trace.successes),
                )
            )
        curve = ReportTable(
            title="Entropy curve: exhaustive sweep vs keyed-orbit fleets",
            headers=(
                "N",
                "key bits",
                "trials",
                "mean probes to alarm",
                "analytic E[probes]",
                "alarm rate",
                "successes",
            ),
            rows=tuple(curve_rows),
        )
        comparison_rows = tuple(
            (
                label,
                str(trace.num_variants),
                str(trace.key_bits),
                "yes" if trace.slide else "no",
                str(trace.trials),
                f"{trace.mean_probes_to_first_alarm:.2f}",
                f"{trace.alarm_rate:.2f}",
                str(trace.successes),
            )
            for label, trace in self.comparisons
        )
        comparison = ReportTable(
            title="Attacker strategies at the largest swept key",
            headers=(
                "strategy",
                "N",
                "key bits",
                "slide",
                "trials",
                "mean probes to alarm",
                "alarm rate",
                "successes",
            ),
            rows=comparison_rows,
        )
        summary = ReportKeyValues(
            title="Game",
            pairs=(
                ("seed", str(self.seed)),
                ("backend", self.backend),
                ("probe cells", str(sum(p.trace.trials for p in self.points))),
                (
                    "keyed-UID configurations",
                    ", ".join(
                        f"N={n}:{'ok' if held else 'BROKEN'}"
                        for n, held in sorted(self.uid_guarantee.items())
                    ),
                ),
            ),
        )
        telemetry = {
            "probe_cells": sum(p.trace.trials for p in self.points)
            + sum(t.trials for _, t in self.comparisons),
            "probes_planned": sum(
                o.planned for p in self.points for o in p.trace.outcomes
            ),
        }
        return ExperimentReport(
            title="Key entropy vs probes-to-first-alarm (keyed schemes)",
            sections=(curve, comparison, summary),
            claims=self.claim_results(),
            telemetry=telemetry,
            result=self,
        )


def run(
    *,
    min_variants: int = 2,
    max_variants: int = 4,
    min_key_bits: int = 2,
    max_key_bits: int = 6,
    trials: int = 20,
    seed: int = DEFAULT_SEED,
    backend: str = "virtual",
    workers: int = 4,
) -> EntropyResult:
    """Play the keyed game over ``N x key_bits`` and the strategy panel."""
    from repro.attacks.uid_attacks import standard_uid_attacks

    if not 2 <= min_variants <= max_variants:
        raise ExperimentParameterError(
            "entropy",
            f"need 2 <= min_variants <= max_variants, got {min_variants}..{max_variants}",
        )
    if not 1 <= min_key_bits <= max_key_bits:
        raise ExperimentParameterError(
            "entropy",
            f"need 1 <= min_key_bits <= max_key_bits, got {min_key_bits}..{max_key_bits}",
        )
    if (1 << min_key_bits) < max_variants:
        raise ExperimentParameterError(
            "entropy",
            f"2**min_key_bits must cover max_variants slices "
            f"({1 << min_key_bits} < {max_variants})",
        )
    counts = list(range(min_variants, max_variants + 1))
    key_bits_range = list(range(min_key_bits, max_key_bits + 1))
    sweep = ExhaustiveSweepAttacker()

    # One flat plan list -> one scheduler pass; groups recovered by slicing,
    # since both backends return results in submission order.
    plans = []
    groups: dict[object, tuple[int, int]] = {}

    def plan_group(key, strategy, *, num_variants, key_bits, slide, label):
        start = len(plans)
        for t in range(trials):
            plans.append(
                plan_trial(
                    strategy,
                    num_variants=num_variants,
                    key_bits=key_bits,
                    seed=derive_seed(seed, label, num_variants, key_bits, t),
                    slide=slide,
                    name=f"{label}-n{num_variants}-k{key_bits}-t{t}",
                )
            )
        groups[key] = (start, len(plans))

    for n in counts:
        for k in key_bits_range:
            plan_group(("curve", n, k), sweep, num_variants=n, key_bits=k,
                       slide=False, label="curve")

    n_cmp, k_cmp = min_variants, max_key_bits
    panel = [
        ("exhaustive-sweep", sweep, False),
        ("random-probing", RandomProbingAttacker(), False),
        ("partial-knowledge", PartialKnowledgeAttacker(known_bits=2), False),
        ("partial-knowledge+slide", PartialKnowledgeAttacker(known_bits=2), True),
    ]
    for label, strategy, slide in panel:
        plan_group(("panel", label), strategy, num_variants=n_cmp,
                   key_bits=k_cmp, slide=slide, label=label)

    outcomes = run_probe_batch(plans, backend=backend, workers=workers)

    def trace_of(key, *, num_variants, key_bits, slide) -> AttackTrace:
        start, end = groups[key]
        return AttackTrace(
            strategy=plans[start].strategy,
            num_variants=num_variants,
            key_bits=key_bits,
            slide=slide,
            seed=seed,
            outcomes=outcomes[start:end],
        )

    points = [
        EntropyPoint(
            num_variants=n,
            key_bits=k,
            trace=trace_of(("curve", n, k), num_variants=n, key_bits=k, slide=False),
        )
        for n in counts
        for k in key_bits_range
    ]
    comparisons = [
        (label, trace_of(("panel", label), num_variants=n_cmp,
                         key_bits=k_cmp, slide=slide))
        for label, _, slide in panel
    ]

    # Determinism check: the first curve group, planned and run again from the
    # same root seed, must reproduce its outcomes bit for bit.
    first_start, first_end = groups[("curve", counts[0], key_bits_range[0])]
    replay = run_probe_batch(plans[first_start:first_end], backend=backend,
                             workers=workers)
    replay_identical = replay == outcomes[first_start:first_end]

    uid_report = run_campaign(
        [keyed_uid_spec(n) for n in counts],
        standard_uid_attacks(),
        workers=workers,
        backend=backend,
        seed=seed,
    )
    uid_guarantee = {}
    for n in counts:
        cell_outcomes = uid_report.by_configuration(keyed_uid_spec(n).name)
        guaranteed = [o for o in cell_outcomes if o.attack not in OUTSIDE_GUARANTEE]
        uid_guarantee[n] = bool(guaranteed) and all(
            o.kind is OutcomeKind.DETECTED for o in guaranteed
        )

    return EntropyResult(
        points=points,
        comparisons=comparisons,
        uid_report=uid_report,
        uid_guarantee=uid_guarantee,
        replay_identical=replay_identical,
        seed=seed,
        backend=backend,
    )
