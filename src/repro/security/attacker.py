"""Brute-force attacker strategies against keyed address layouts.

The game: a keyed fleet hides N variants' data in secret slices among
``2**key_bits`` (plus, under ``slide``, a secret intra-slice offset each).
The attacker knows the *nominal* program layout -- source code is public --
but not the key, and submits probes (checked reads of absolute addresses)
until the first partial hit halts the fleet.  Strategies differ in how they
order the search space:

* :class:`ExhaustiveSweepAttacker` -- slices in ascending order; first alarm
  at ``min(secret slices) + 1`` probes, expectation
  ``(2**key_bits + 1) / (N + 1)`` over uniform keys
  (:func:`expected_exhaustive_probes`).
* :class:`RandomProbingAttacker` -- i.i.d. uniform guesses from an injected
  :class:`random.Random`; geometrically distributed,
  expectation ``2**key_bits / N``.
* :class:`PartialKnowledgeAttacker` -- a prior: the attacker has leaked the
  low ``known_bits`` of every occupied slice (and the slide offsets, when
  present), shrinking the search space by ``2**known_bits``.  This is the
  only strategy that reads the fleet's secret, and only through the declared
  leak.

Trials run as ordinary campaign cells: :func:`plan_trial` derives the trial's
key seed and probe plan from one root seed, and :func:`run_probe_batch`
turns any mix of planned trials into one job list -- each job's preparer is
``functools.partial(prepare_probe_cell, ...)`` over the plan's picklable
spec and probe list -- and runs it with
:func:`~repro.engine.campaign.run_jobs`, on the in-process virtual backend
or the pre-forked process pool, with identical, submission-ordered results
either way.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import statistics
from typing import Optional, Protocol, Sequence, runtime_checkable

from repro.api.seeding import derive_seed
from repro.api.spec import SystemSpec, keyed_address_spec
from repro.engine.campaign import CampaignJob, run_jobs
from repro.memory.partition import VALUE_BITS, KeyedRegionScheme
from repro.security.probes import (
    ProbeOutcome,
    SECRET_NOMINAL_BASE,
    prepare_probe_cell,
)


def expected_exhaustive_probes(key_bits: int, num_variants: int) -> float:
    """Analytic E[probes to first alarm] for the ascending exhaustive sweep.

    The N occupied slices are a uniform random N-subset of ``2**key_bits``;
    the sweep alarms at ``min(occupied) + 1``, and the expected minimum of a
    uniform N-subset of ``{0..M-1}`` is ``(M - N) / (N + 1)``.
    """
    space = 1 << key_bits
    return (space - num_variants) / (num_variants + 1) + 1


@runtime_checkable
class BruteForceAttacker(Protocol):
    """A probe-ordering strategy: plans absolute addresses to try, in order."""

    #: Stable strategy name (labels cells, traces and report rows).
    name: str

    #: True when :meth:`plan` consumes the fleet's secret (a declared leak).
    requires_secret: bool

    def plan(
        self,
        *,
        key_bits: int,
        num_variants: int,
        rng: random.Random,
        secret: Optional[tuple[int, ...]] = None,
    ) -> list[int]:
        """The ordered probe addresses for one trial."""
        ...


@dataclasses.dataclass(frozen=True)
class ExhaustiveSweepAttacker:
    """Sweep every slice base in ascending order (the baseline search)."""

    max_probes: Optional[int] = None
    name: str = "exhaustive-sweep"
    requires_secret: bool = False

    def plan(self, *, key_bits, num_variants, rng, secret=None):
        shift = VALUE_BITS - key_bits
        addresses = [(s << shift) + SECRET_NOMINAL_BASE for s in range(1 << key_bits)]
        return addresses[: self.max_probes] if self.max_probes else addresses


@dataclasses.dataclass(frozen=True)
class RandomProbingAttacker:
    """Uniform i.i.d. slice guesses (with replacement) from the injected rng."""

    max_probes: Optional[int] = None
    name: str = "random-probing"
    requires_secret: bool = False

    def plan(self, *, key_bits, num_variants, rng, secret=None):
        shift = VALUE_BITS - key_bits
        budget = self.max_probes if self.max_probes else 2 * (1 << key_bits)
        return [
            (rng.randrange(1 << key_bits) << shift) + SECRET_NOMINAL_BASE for _ in range(budget)
        ]


@dataclasses.dataclass(frozen=True)
class PartialKnowledgeAttacker:
    """A prior from a leak: the low *known_bits* of every occupied slice.

    Only slices consistent with the leak are probed (ascending).  When the
    secret also carries slide offsets (the ``keyed-address`` scheme), those
    are assumed leaked too, and every candidate slice is probed once per
    distinct offset -- the slice assignment remains the unknown.
    """

    known_bits: int = 2
    name: str = "partial-knowledge"
    requires_secret: bool = True

    def plan(self, *, key_bits, num_variants, rng, secret=None):
        if secret is None:
            raise ValueError("partial-knowledge planning needs the fleet's secret (the leak)")
        shift = VALUE_BITS - key_bits
        slices = secret[:num_variants]
        offsets = secret[num_variants:] or (0,)
        mask = (1 << min(self.known_bits, key_bits)) - 1
        leaked = {s & mask for s in slices}
        addresses = []
        for candidate in range(1 << key_bits):
            if candidate & mask not in leaked:
                continue
            for offset in sorted(set(offsets)):
                addresses.append((candidate << shift) + offset + SECRET_NOMINAL_BASE)
        return addresses


@dataclasses.dataclass(frozen=True)
class ProbeTrialPlan:
    """One fully planned trial: the seeded fleet spec plus its probe list."""

    name: str
    strategy: str
    spec: SystemSpec
    addresses: tuple[int, ...]
    num_variants: int
    key_bits: int
    slide: bool
    seed: int


def plan_trial(
    strategy: BruteForceAttacker,
    *,
    num_variants: int = 2,
    key_bits: int = 6,
    seed: int,
    slide: bool = False,
    name: Optional[str] = None,
) -> ProbeTrialPlan:
    """Plan one trial: derive the key seed, draw the layout, order the probes.

    Everything is derived from *seed* with :func:`~repro.api.seeding.derive_seed`
    (never the module-global :mod:`random`), so the same seed plans the same
    trial in any process: the fleet spec carries the derived key seed, and the
    worker rebuilding the spec draws the exact layout planned against here.
    """
    key_seed = derive_seed(seed, "key", strategy.name, num_variants, key_bits, slide)
    plan_rng = random.Random(derive_seed(seed, "plan", strategy.name, num_variants, key_bits, slide))
    secret = KeyedRegionScheme(
        num_variants, key_bits=key_bits, seed=key_seed, slide=slide
    ).secret()
    addresses = strategy.plan(
        key_bits=key_bits,
        num_variants=num_variants,
        rng=plan_rng,
        secret=secret if strategy.requires_secret else None,
    )
    spec = keyed_address_spec(num_variants, key_bits=key_bits, seed=key_seed, slide=slide)
    return ProbeTrialPlan(
        name=name or f"{strategy.name}@{spec.name}#s{seed}",
        strategy=strategy.name,
        spec=spec,
        addresses=tuple(addresses),
        num_variants=num_variants,
        key_bits=key_bits,
        slide=slide,
        seed=seed,
    )


def run_probe_batch(
    plans: Sequence[ProbeTrialPlan],
    *,
    backend: str = "virtual",
    workers: int = 1,
) -> list[ProbeOutcome]:
    """Execute planned trials through the campaign scheduler, in plan order.

    Each plan is one job whose preparer is ``functools.partial(
    prepare_probe_cell, ...)`` over the plan's picklable spec and probe
    list, so ``backend="virtual"`` interleaves the cells as resumable
    sessions in process and ``backend="process"`` builds the same cells on
    the pre-forked worker pool.  Results come back in submission order on
    both paths, and seeded plans produce byte-identical outcomes either way.
    """
    jobs = [
        CampaignJob(
            plan.name,
            functools.partial(
                prepare_probe_cell,
                plan.spec,
                plan.addresses,
                name=plan.name,
                strategy=plan.strategy,
                key_bits=plan.key_bits,
            ),
        )
        for plan in plans
    ]
    execution = run_jobs(jobs, backend=backend, workers=workers)
    return [
        ProbeOutcome.from_dict(job.value)
        for job in execution.jobs
        if job.value is not None
    ]


@dataclasses.dataclass
class AttackTrace:
    """All trials of one strategy against one keyed configuration."""

    strategy: str
    num_variants: int
    key_bits: int
    slide: bool
    seed: int
    outcomes: list[ProbeOutcome]

    @property
    def trials(self) -> int:
        return len(self.outcomes)

    @property
    def alarm_rate(self) -> float:
        """Fraction of trials the fleet caught before the plan ran out."""
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes if o.alarmed) / len(self.outcomes)

    @property
    def mean_probes_to_first_alarm(self) -> float:
        """Mean probes until the first alarm (censored trials count as their
        full planned budget -- a lower bound on the true mean)."""
        if not self.outcomes:
            return float("nan")
        return statistics.fmean(
            o.probes_to_first_alarm if o.alarmed else o.planned for o in self.outcomes
        )

    @property
    def successes(self) -> int:
        """Trials that reached an undetected compromise (expected: zero)."""
        return sum(1 for o in self.outcomes if o.probes_to_success is not None)
