"""Seeded open-loop arrival processes on the engine's virtual clock.

A closed-loop driver (webbench) sends the next request when the
previous one finishes, so a slow server is never overloaded -- the driver
politely waits.  Production traffic does not wait: requests arrive on their
own schedule whether the fleet keeps up or not, and every claim about
overload, shedding, and tail latency needs that *open-loop* model.  An
arrival process here is exactly that schedule: a deterministic, seeded
sequence of virtual-clock ticks at which requests hit the listener,
independent of completion rate.

All randomness flows through an injected :class:`random.Random` whose seed
the callers derive via :func:`repro.api.seeding.derive_seed`, so a seeded
loadtest is byte-identical in-process and across forked workers (the same
guarantee the campaign tier established in PR 7).  Rates are expressed in
requests per kilotick, matching the throughput units the workload
measurements already report.
"""

from __future__ import annotations

import random
from typing import Callable, Optional


class LoadError(ValueError):
    """A load-subsystem request could not be understood or satisfied."""


class UnknownArrivalError(LoadError):
    """An unknown arrival-process kind was named (CLI exit-2 material)."""

    def __init__(self, kind: str):
        super().__init__(
            f"unknown arrival process {kind!r}; registered processes: "
            f"{', '.join(arrival_kinds())}"
        )
        self.kind = kind


def _check_rate(rate: float) -> float:
    if not isinstance(rate, (int, float)) or isinstance(rate, bool) or rate <= 0:
        raise LoadError(f"arrival rate must be a positive number, got {rate!r}")
    return float(rate)


class ArrivalProcess:
    """Base class: a generator of absolute arrival ticks.

    ``rate`` is the long-run average arrival rate in requests per kilotick;
    :meth:`schedule` renders the next *count* arrivals as a non-decreasing
    list of positive virtual-clock ticks.  Scheduling consumes the injected
    generator's state, so one process instance renders one schedule -- build
    a fresh instance (same seed) to reproduce it.
    """

    kind = "arrival"

    def __init__(self, rate: float, *, rng: Optional[random.Random] = None):
        self.rate = _check_rate(rate)
        self.rng = rng if rng is not None else random.Random()

    @property
    def mean_gap(self) -> float:
        """Mean inter-arrival gap in ticks implied by the rate."""
        return 1000.0 / self.rate

    def _gaps(self, count: int):  # pragma: no cover - abstract
        raise NotImplementedError

    def schedule(self, count: int) -> list[int]:
        """The next *count* arrival ticks (absolute, starting after tick 0)."""
        if count < 0:
            raise LoadError(f"arrival count must be >= 0, got {count}")
        ticks: list[int] = []
        now = 0
        for gap in self._gaps(count):
            now += max(1, int(round(gap)))
            ticks.append(now)
        return ticks


class ConstantArrivals(ArrivalProcess):
    """Evenly spaced arrivals: the deterministic pacing baseline."""

    kind = "constant"

    def _gaps(self, count: int):
        for _ in range(count):
            yield self.mean_gap


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival gaps at the given rate."""

    kind = "poisson"

    def _gaps(self, count: int):
        for _ in range(count):
            yield self.rng.expovariate(1.0 / self.mean_gap)


class BurstyArrivals(ArrivalProcess):
    """MMPP-style on-off arrivals: quiet stretches punctuated by bursts.

    A two-state modulated Poisson process: in the ON state arrivals come
    ``burst_factor`` times faster than the long-run rate; the OFF state is
    silent.  Exponential dwell times are balanced so the ON fraction is
    ``1/burst_factor`` and the long-run average rate matches ``rate`` -- the
    process stresses queues with the same offered load a Poisson stream
    carries, concentrated into bursts.
    """

    kind = "bursty"

    def __init__(
        self,
        rate: float,
        *,
        rng: Optional[random.Random] = None,
        burst_factor: float = 4.0,
        mean_on_ticks: float = 1500.0,
    ):
        super().__init__(rate, rng=rng)
        if burst_factor <= 1.0:
            raise LoadError(f"burst_factor must be > 1, got {burst_factor!r}")
        if mean_on_ticks <= 0:
            raise LoadError(f"mean_on_ticks must be positive, got {mean_on_ticks!r}")
        self.burst_factor = float(burst_factor)
        self.mean_on_ticks = float(mean_on_ticks)

    def _gaps(self, count: int):
        on_gap = self.mean_gap / self.burst_factor
        mean_off = self.mean_on_ticks * (self.burst_factor - 1.0)
        remaining_on = self.rng.expovariate(1.0 / self.mean_on_ticks)
        for _ in range(count):
            gap = 0.0
            while True:
                draw = self.rng.expovariate(1.0 / on_gap)
                if draw <= remaining_on:
                    gap += draw
                    remaining_on -= draw
                    break
                # The ON period ends before the next arrival: spend what is
                # left of it, sit out one OFF dwell, then redraw inside a
                # fresh ON period (exponentials are memoryless).
                gap += remaining_on + self.rng.expovariate(1.0 / mean_off)
                remaining_on = self.rng.expovariate(1.0 / self.mean_on_ticks)
            yield gap


class RampArrivals(ArrivalProcess):
    """A linear rate ramp: from ``ramp_from``x to ``ramp_to``x the quoted rate.

    Deterministic by design (the ramp *is* the experiment's independent
    variable); the schedule sweeps the instantaneous rate linearly across the
    request count, so early requests probe an underloaded server and late
    ones an overloaded one within a single run.
    """

    kind = "ramp"

    def __init__(
        self,
        rate: float,
        *,
        rng: Optional[random.Random] = None,
        ramp_from: float = 0.5,
        ramp_to: float = 2.0,
    ):
        super().__init__(rate, rng=rng)
        if ramp_from <= 0 or ramp_to <= 0:
            raise LoadError(
                f"ramp_from/ramp_to must be positive, got {ramp_from!r}/{ramp_to!r}"
            )
        self.ramp_from = float(ramp_from)
        self.ramp_to = float(ramp_to)

    def _gaps(self, count: int):
        for index in range(count):
            fraction = index / (count - 1) if count > 1 else 0.0
            factor = self.ramp_from + (self.ramp_to - self.ramp_from) * fraction
            yield self.mean_gap / factor


ArrivalFactory = Callable[..., ArrivalProcess]

#: Stable kind name -> factory.  Factories take ``rate`` first and process-
#: specific keyword parameters after it.
ARRIVALS: dict[str, ArrivalFactory] = {
    ConstantArrivals.kind: ConstantArrivals,
    PoissonArrivals.kind: PoissonArrivals,
    BurstyArrivals.kind: BurstyArrivals,
    RampArrivals.kind: RampArrivals,
}


def arrival_kinds() -> list[str]:
    """The registered arrival-process kinds, sorted."""
    return sorted(ARRIVALS)


def create_arrival_process(
    kind: str, rate: float, *, rng: Optional[random.Random] = None, **params
) -> ArrivalProcess:
    """Instantiate a registered arrival process; unknown kinds raise."""
    try:
        factory = ARRIVALS[kind]
    except KeyError:
        raise UnknownArrivalError(kind) from None
    try:
        return factory(rate, rng=rng, **params)
    except TypeError as exc:
        raise LoadError(f"bad parameters for arrival process {kind!r}: {exc}") from None
