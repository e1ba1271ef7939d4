"""The unified campaign runner: attacks x system specs, one engine.

:func:`prepare_attack` and :func:`run_attack` are the one way to run an
attack against a system: every attack family builds its cell from any
:class:`~repro.api.spec.SystemSpec`, the one-variant baseline included, and
:func:`~repro.attacks.outcomes.decide` judges every cell by one rule.
:func:`run_campaign` takes any mix of attacks from the library and any list
of system specs, turns each pair into a
:class:`~repro.engine.campaign.CampaignJob` whose preparer is
``functools.partial(prepare_attack, attack, spec)`` -- a module-level
function and two picklable objects -- and hands the list to
:func:`~repro.engine.campaign.run_jobs`.  The same list runs on either
backend: the in-process campaign scheduler, where ``workers=1`` runs the
cells back-to-back in submission order and larger values interleave up to
that many cells round-robin with batched lockstep rounds, or pre-forked OS
worker processes, which unpickle each preparer and build the identical cell
there.  Every cell owns its own simulated host, so the per-cell outcomes are
identical on every backend and worker count (the serial-parity property
test pins this).

Attack modules are imported lazily inside the functions that need them: they
build their systems through :mod:`repro.api.builders`, so a module-level
import of them here would be circular.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence, Union

from repro.api.experiments import ReportTable
from repro.api.spec import STANDARD_SYSTEM_SPECS, SystemSpec
from repro.attacks.outcomes import AttackOutcome, OutcomeKind, prepare_attack
from repro.engine.campaign import CampaignJob, run_jobs
from repro.engine.policy import CampaignHaltPolicy
from repro.engine.scheduler import CampaignExecutionResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the import cycle
    from repro.attacks.memory_attacks import AddressInjectionAttack
    from repro.attacks.uid_attacks import UIDAttack

    Attack = UIDAttack | AddressInjectionAttack


@dataclasses.dataclass
class CampaignReport:
    """All outcomes from one campaign plus summary helpers.

    ``execution`` carries the engine scheduler's accounting (worker elapsed
    virtual times, fairness telemetry) when the report came out of
    :func:`run_campaign`; the outcome list and every summary helper are
    independent of how the campaign was scheduled.
    """

    outcomes: list[AttackOutcome] = dataclasses.field(default_factory=list)
    execution: Optional[CampaignExecutionResult] = None

    def add(self, outcome: AttackOutcome) -> None:
        """Append one outcome."""
        self.outcomes.append(outcome)

    def by_configuration(self, configuration: str) -> list[AttackOutcome]:
        """Outcomes recorded against *configuration*."""
        return [o for o in self.outcomes if o.configuration == configuration]

    def security_failures(self) -> list[AttackOutcome]:
        """Undetected compromises across the whole campaign."""
        return [o for o in self.outcomes if o.is_security_failure]

    def detection_rate(self, configuration: str) -> float:
        """Fraction of attacks detected in *configuration*."""
        outcomes = self.by_configuration(configuration)
        if not outcomes:
            return 0.0
        detected = sum(1 for o in outcomes if o.kind is OutcomeKind.DETECTED)
        return detected / len(outcomes)

    def matrix(self) -> dict[str, dict[str, str]]:
        """``{attack: {configuration: outcome kind}}`` for table rendering."""
        table: dict[str, dict[str, str]] = {}
        for outcome in self.outcomes:
            table.setdefault(outcome.attack, {})[outcome.configuration] = outcome.kind.value
        return table

    def matrix_table(
        self, title: str, configurations: Sequence[str], *, attack_header: str = "attack"
    ) -> ReportTable:
        """The matrix as a report table, one row per attack; a cell that did not run is ``-``."""
        matrix = self.matrix()
        return ReportTable(
            title=title,
            headers=(attack_header, *configurations),
            rows=tuple(
                (attack, *(matrix[attack].get(c, "-") for c in configurations))
                for attack in matrix
            ),
        )

    def execution_telemetry(self, *, detail: bool = False) -> dict[str, Any]:
        """The scheduler's accounting as ``campaign_*`` report telemetry.

        *detail* adds the turn, fairness and halt counts to the summary.
        """
        execution = self.execution
        if execution is None:
            return {}
        telemetry = {
            "campaign_backend": execution.backend,
            "campaign_parallelism": execution.parallelism,
            "campaign_cells": len(execution.jobs),
            "campaign_virtual_elapsed": execution.virtual_elapsed,
            "campaign_speedup": round(execution.speedup(), 2),
        }
        if detail:
            telemetry.update(
                campaign_virtual_elapsed_sequential=execution.virtual_elapsed_sequential,
                campaign_rounds_per_turn=execution.rounds_per_turn,
                campaign_scheduler_turns=execution.scheduler_turns,
                campaign_max_wait_turns=execution.max_wait_turns,
                campaign_steals=execution.steals,
                campaign_truncated_cells=len(execution.truncated_jobs),
                campaign_skipped_cells=len(execution.skipped_jobs),
            )
        return telemetry

    def describe(self) -> str:
        """Multi-line report."""
        lines = [o.describe() for o in self.outcomes]
        failures = self.security_failures()
        lines.append("")
        lines.append(f"undetected compromises: {len(failures)}")
        return "\n".join(lines)


def standard_attacks(app: str = "httpd") -> list["Attack"]:
    """Every attack in the library's standard suites (UID + address).

    The same attack classes exist against every registered serving app; *app*
    selects whose wire format carries the payloads.
    """
    from repro.attacks.memory_attacks import standard_address_attacks
    from repro.attacks.uid_attacks import standard_uid_attacks

    return [*standard_uid_attacks(app), *standard_address_attacks(app)]


def attacks_by_name(app: str = "httpd") -> dict[str, "Attack"]:
    """Name -> attack for every standard attack (the CLI's selection space)."""
    return {attack.name: attack for attack in standard_attacks(app)}


def run_attack(attack: "Attack", spec: SystemSpec) -> AttackOutcome:
    """Run one attack against one declaratively specified system."""
    return prepare_attack(attack, spec).run()


def run_campaign(
    specs: Sequence[SystemSpec] = STANDARD_SYSTEM_SPECS,
    attacks: Optional[Iterable["Attack"]] = None,
    *,
    workers: int = 1,
    rounds_per_turn: int = 8,
    halt: Union[CampaignHaltPolicy, str] = CampaignHaltPolicy.PER_CELL,
    backend: str = "virtual",
    seed: Optional[int] = None,
) -> CampaignReport:
    """Run every attack against every system spec and collect the outcomes.

    With no *attacks* the full standard suite (UID corruption plus address
    injection) runs; pass a subset to focus a campaign.  Specs may carry any
    registered variation stack -- this is the generic cross product the
    detection-matrix experiment, the examples and the CLI all share.

    Each cell is one :class:`~repro.engine.campaign.CampaignJob` whose
    preparer is ``functools.partial(prepare_attack, attack, spec)``, and
    :func:`~repro.engine.campaign.run_jobs` runs the list on either backend,
    reporting outcomes in submission order (attacks outer, specs inner),
    regardless of completion order:

    * ``backend="virtual"`` (the default): every cell runs as a resumable
      session interleaved by the in-process
      :class:`~repro.engine.campaign.CampaignScheduler`, with concurrency
      accounted in kernel ticks.  ``rounds_per_turn`` batches that many
      lockstep rounds per scheduling turn.
    * ``backend="process"``: the pickled preparers are sharded across
      pre-forked OS worker processes (:mod:`repro.engine.procpool`), so the
      concurrency is physical wall-clock parallelism.  Any attack object
      that pickles runs there, custom ones included.

    ``workers`` is the worker count on either backend (1 = the serial order
    every other count reproduces cell-for-cell, since cells share no state).
    ``halt`` chooses what one cell's halt means for the rest of the campaign
    (:class:`~repro.engine.policy.CampaignHaltPolicy`).

    ``seed`` pins every seedable (keyed) variation in every spec to a seed
    derived from it (:func:`~repro.api.seeding.seeded_spec`).  The rewrite
    happens before the jobs are built, so the derived seeds travel inside the
    pickled specs and a seeded campaign is byte-identical across backends and
    worker counts.
    """
    if seed is not None:
        from repro.api.seeding import seeded_spec

        specs = [seeded_spec(spec, seed) for spec in specs]
    selected = list(attacks) if attacks is not None else standard_attacks()
    halt_policy = halt if isinstance(halt, CampaignHaltPolicy) else CampaignHaltPolicy(halt)
    jobs = [
        CampaignJob(f"{attack.name}@{spec.name}", functools.partial(prepare_attack, attack, spec))
        for attack in selected
        for spec in specs
    ]
    execution = run_jobs(
        jobs,
        backend=backend,
        workers=workers,
        rounds_per_turn=rounds_per_turn,
        halt_policy=halt_policy,
    )
    return CampaignReport(
        outcomes=[job.value for job in execution.jobs if job.value is not None],
        execution=execution,
    )
