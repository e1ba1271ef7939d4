"""The unified campaign runner: attacks x system specs, one engine.

The seed repository grew one ad-hoc campaign per attack family
(``run_uid_campaign``, ``run_address_campaign``), each hand-wiring its own
configurations.  With systems described by :class:`~repro.api.spec.SystemSpec`
there is a single cross product left to run: :func:`run_campaign` takes any
mix of attacks from the library and any list of system specs, expands each
pair into a prepared cell -- a private kernel plus a resumable
:class:`~repro.engine.session.NVariantSession` -- and hands the whole batch to
the engine's :class:`~repro.engine.campaign.CampaignScheduler`.  That
scheduler is the only execution path: ``parallelism=1`` runs the cells
back-to-back in submission order (the historical serial campaign), larger
values interleave up to that many cells round-robin with batched lockstep
rounds, and because every cell owns its own simulated host the per-cell
outcomes are identical either way (the serial-parity property test pins
this).  The legacy ``run_uid_campaign``/``run_address_campaign`` shims were
removed after their one-release deprecation window; this function is the
only campaign entry point.

Attack drivers are imported lazily inside the dispatch functions: the attack
modules themselves build their systems through :mod:`repro.api.builders`, so a
module-level import in either direction would be circular.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from repro.api.spec import STANDARD_SYSTEM_SPECS, SystemSpec
from repro.engine.campaign import (
    CampaignExecutionResult,
    CampaignHaltPolicy,
    CampaignJob,
    run_jobs,
)
from repro.engine.procpool import ProcessJob, ProcessWorkerPool, run_process_jobs

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the import cycle
    from repro.attacks.memory_attacks import AddressInjectionAttack
    from repro.attacks.outcomes import AttackOutcome, PreparedAttack
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

    outcomes: list["AttackOutcome"] = dataclasses.field(default_factory=list)
    execution: Optional[CampaignExecutionResult] = None

    def add(self, outcome: "AttackOutcome") -> None:
        """Append one outcome."""
        self.outcomes.append(outcome)

    def by_configuration(self, configuration: str) -> list["AttackOutcome"]:
        """Outcomes recorded against *configuration*."""
        return [o for o in self.outcomes if o.configuration == configuration]

    def security_failures(self) -> list["AttackOutcome"]:
        """Undetected compromises across the whole campaign."""
        return [o for o in self.outcomes if o.is_security_failure]

    def detection_rate(self, configuration: str) -> float:
        """Fraction of attacks detected in *configuration*."""
        from repro.attacks.outcomes import OutcomeKind

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


def prepare_attack(attack: "Attack", spec: SystemSpec) -> "PreparedAttack":
    """Prepare one attack-x-spec cell: a lazy session plus its finalizer."""
    from repro.attacks.memory_attacks import AddressInjectionAttack, prepare_address_attack
    from repro.attacks.uid_attacks import UIDAttack, prepare_uid_attack

    if isinstance(attack, UIDAttack):
        return prepare_uid_attack(attack, spec)
    if isinstance(attack, AddressInjectionAttack):
        return prepare_address_attack(attack, spec)
    raise TypeError(f"unknown attack type {type(attack).__name__}: cannot dispatch {attack!r}")


def run_attack(attack: "Attack", spec: SystemSpec) -> "AttackOutcome":
    """Run one attack against one declaratively specified system."""
    return prepare_attack(attack, spec).run()


# ---------------------------------------------------------------------------
# The process backend: cells serialized as scenario payloads
# ---------------------------------------------------------------------------

#: Campaign execution backends `run_campaign` accepts.
CAMPAIGN_BACKENDS = ("virtual", "process")


def expand_backends(backend: str) -> tuple[str, ...]:
    """The backends an experiment's ``backend`` setting selects.

    ``"both"`` expands to every campaign backend, in run order; any other
    value must name one of them.
    """
    if backend == "both":
        return CAMPAIGN_BACKENDS
    if backend not in CAMPAIGN_BACKENDS:
        choices = ", ".join((*CAMPAIGN_BACKENDS, "both"))
        raise ValueError(f"backend must be one of {choices}, got {backend!r}")
    return (backend,)


#: The runner reference process workers resolve to rebuild and run one cell.
CELL_RUNNER = "repro.api.campaign:run_cell_payload"


def run_cell_payload(payload) -> dict:
    """Rebuild one attack-x-spec cell from its payload and run it (worker side).

    Live sessions hold kernels and generators, so what crosses the process
    boundary is the same declarative data a scenario file holds: the attack's
    library name plus the :class:`~repro.api.spec.SystemSpec` dict.  The cell
    is then prepared exactly the way the virtual backend prepares it in
    process, which is what makes the two backends byte-identical per cell.

    ``service_delay_ms``, when present, adds a real blocking wait after the
    cell -- the per-cell network/disk service time an in-process simulation
    elides.  The wall-clock benchmark uses it to measure the worker fleet's
    blocking-overlap win independently of how many cores the host has; it
    never changes the cell's outcome or virtual-time accounting.
    """
    import time

    attack_name = payload["attack"]
    # The "app" key is omitted for the historical default so pre-existing
    # payloads (and their recorded benchmark bytes) are unchanged.
    known = attacks_by_name(payload.get("app", "httpd"))
    if attack_name not in known:
        raise ValueError(
            f"unknown attack {attack_name!r} in cell payload; known attacks: "
            f"{', '.join(sorted(known))}"
        )
    spec = SystemSpec.from_dict(payload["spec"])
    cell = prepare_attack(known[attack_name], spec)
    session = cell.start()
    while not session.done:
        session.step()
    value = cell.finish(session)
    delay_ms = payload.get("service_delay_ms", 0)
    if delay_ms:
        time.sleep(delay_ms / 1000.0)
    return {
        "state": session.state.value,
        "rounds": session.rounds,
        "virtual_elapsed": session.virtual_elapsed,
        "value": value,
    }


def process_campaign_jobs(
    specs: Sequence[SystemSpec],
    attacks: Optional[Iterable["Attack"]] = None,
    *,
    service_delay_ms: int = 0,
) -> list[ProcessJob]:
    """Expand the attacks-x-specs cross product into process-tier jobs.

    The process backend ships cells by *name*: a worker looks the attack up
    in the standard library and rebuilds the cell from the spec dict, so an
    attack object that is not (or no longer matches) its registered namesake
    cannot cross the boundary -- that is rejected here, loudly, instead of
    silently running a different attack in the worker.
    """
    selected = list(attacks) if attacks is not None else standard_attacks()
    known_per_app: dict[str, dict] = {}
    jobs = []
    for attack in selected:
        app = getattr(attack, "app", "httpd")
        if app not in known_per_app:
            known_per_app[app] = attacks_by_name(app)
        if known_per_app[app].get(attack.name) != attack:
            raise ValueError(
                f"attack {attack.name!r} is not a standard library attack; the "
                "process backend serializes cells by attack name, so custom "
                "attack objects must run on the virtual backend"
            )
        for spec in specs:
            payload: dict = {"attack": attack.name, "spec": spec.to_dict()}
            if app != "httpd":
                payload["app"] = app
            if service_delay_ms:
                payload["service_delay_ms"] = service_delay_ms
            jobs.append(
                ProcessJob(
                    name=f"{attack.name}@{spec.name}", runner=CELL_RUNNER, payload=payload
                )
            )
    return jobs


def run_campaign(
    specs: Sequence[SystemSpec] = STANDARD_SYSTEM_SPECS,
    attacks: Optional[Iterable["Attack"]] = None,
    *,
    parallelism: int = 1,
    rounds_per_turn: int = 8,
    halt: Union[CampaignHaltPolicy, str] = CampaignHaltPolicy.PER_CELL,
    backend: str = "virtual",
    workers: Optional[int] = None,
    pool: Optional[ProcessWorkerPool] = None,
    seed: Optional[int] = None,
) -> CampaignReport:
    """Run every attack against every system spec and collect the outcomes.

    With no *attacks* the full standard suite (UID corruption plus address
    injection) runs; pass a subset to focus a campaign.  Specs may carry any
    registered variation stack -- this is the generic cross product the
    detection-matrix experiment, the examples and the CLI all share.

    Two backends execute the same cross product and report outcomes in the
    same submission order (attacks outer, specs inner), regardless of
    completion order:

    * ``backend="virtual"`` (the default): every cell runs as a resumable
      session interleaved by the in-process
      :class:`~repro.engine.campaign.CampaignScheduler`, with concurrency
      accounted in kernel ticks.  ``rounds_per_turn`` batches that many
      lockstep rounds per scheduling turn.
    * ``backend="process"``: cells are serialized as scenario payloads and
      sharded across pre-forked OS worker processes
      (:mod:`repro.engine.procpool`), so the concurrency is physical
      wall-clock parallelism.  Pass ``pool`` to reuse a started
      :class:`~repro.engine.procpool.ProcessWorkerPool` across campaigns.

    ``workers`` is the uniform worker-count knob for both backends and
    defaults to ``parallelism`` (kept as the historical spelling; 1 = the
    serial order every other count reproduces cell-for-cell, since cells
    share no state).  ``halt`` chooses what one cell's halt means for the
    rest of the campaign
    (:class:`~repro.engine.campaign.CampaignHaltPolicy`).

    ``seed`` pins every seedable (keyed) variation in every spec to a seed
    derived from it (:func:`~repro.api.seeding.seeded_spec`).  The rewrite
    happens *before* backend dispatch, so the derived seeds travel inside the
    serialized spec payloads and a seeded campaign is byte-identical across
    backends and worker counts.
    """
    if backend not in CAMPAIGN_BACKENDS:
        raise ValueError(
            f"backend must be one of {', '.join(CAMPAIGN_BACKENDS)}, got {backend!r}"
        )
    if seed is not None:
        from repro.api.seeding import seeded_spec

        specs = [seeded_spec(spec, seed) for spec in specs]
    selected = list(attacks) if attacks is not None else standard_attacks()
    halt_policy = halt if isinstance(halt, CampaignHaltPolicy) else CampaignHaltPolicy(halt)
    effective_workers = workers if workers is not None else parallelism
    if effective_workers < 1:
        raise ValueError(f"workers must be >= 1, got {effective_workers}")

    if backend == "process":
        execution = run_process_jobs(
            process_campaign_jobs(specs, selected),
            workers=effective_workers,
            halt_policy=halt_policy,
            rounds_per_turn=rounds_per_turn,
            pool=pool,
        )
    else:
        jobs = []
        for attack in selected:
            for spec in specs:
                cell = prepare_attack(attack, spec)
                jobs.append(CampaignJob(name=cell.name, start=cell.start, finish=cell.finish))
        execution = run_jobs(
            jobs,
            parallelism=effective_workers,
            rounds_per_turn=rounds_per_turn,
            halt_policy=halt_policy,
        )
    return CampaignReport(
        outcomes=[job.value for job in execution.jobs if job.value is not None],
        execution=execution,
    )
