"""Pluggable admission-control policies with per-policy telemetry.

Under open-loop load a server that accepts everything turns overload into
unbounded queueing: every admitted request eventually completes, but sojourn
times grow without limit.  Admission control trades completion for latency
-- shed excess arrivals at the door so the requests that *are* admitted see
bounded queues.  The policies here are pure decision logic over an abstract
clock plus occupancy counters; the open-loop driver (:mod:`repro.load.driver`)
owns the mechanics of actually refusing or evicting work, and reports every
departure back via :meth:`AdmissionPolicy.released`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.load.arrivals import LoadError


class UnknownAdmissionError(LoadError):
    """An unknown admission-policy kind was named (CLI exit-2 material)."""

    def __init__(self, kind: str):
        super().__init__(
            f"unknown admission policy {kind!r}; registered policies: "
            f"{', '.join(admission_kinds())}"
        )
        self.kind = kind


@dataclasses.dataclass
class AdmissionStats:
    """Telemetry one policy accumulates over a run."""

    offered: int = 0
    admitted: int = 0
    shed: int = 0
    #: Current occupancy: admitted work not yet released back to the policy.
    queued: int = 0
    #: The deepest the occupancy ever got (the overload signature).
    queue_high_water: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-ready counters, sorted-key stable."""
        return {
            "admitted": self.admitted,
            "offered": self.offered,
            "queue_high_water": self.queue_high_water,
            "queued": self.queued,
            "shed": self.shed,
        }


@dataclasses.dataclass(frozen=True)
class AdmissionDecision:
    """One offer's outcome.

    ``evict_oldest`` asks the caller to evict its oldest still-queued entry
    to make room for the newly admitted one (bounded-queue drop-oldest); the
    evicted entry must be reported via :meth:`AdmissionPolicy.released` like
    any other departure.
    """

    admitted: bool
    evict_oldest: bool = False


class AdmissionPolicy:
    """Base class: decide per arrival, count everything."""

    kind = "admission"

    def __init__(self) -> None:
        self.stats = AdmissionStats()

    def _admit(self) -> None:
        self.stats.admitted += 1
        self.stats.queued += 1
        if self.stats.queued > self.stats.queue_high_water:
            self.stats.queue_high_water = self.stats.queued

    def offer(self, now: int) -> AdmissionDecision:
        """Decide one arrival at virtual time *now* (ticks)."""
        raise NotImplementedError

    def released(self) -> None:
        """One admitted unit left the system (completed, aborted or evicted)."""
        if self.stats.queued <= 0:
            raise LoadError(f"{self.kind}: released more work than was admitted")
        self.stats.queued -= 1

    def describe(self) -> str:
        """Readable one-line policy summary."""
        return self.kind


class AcceptAllPolicy(AdmissionPolicy):
    """The no-op policy: every arrival is admitted, nothing is ever shed.

    The overload control group -- under sustained offered load beyond
    capacity its queue (and with it the sojourn tail) grows without bound.
    """

    kind = "accept-all"

    def offer(self, now: int) -> AdmissionDecision:
        self.stats.offered += 1
        self._admit()
        return AdmissionDecision(admitted=True)


class BoundedQueuePolicy(AdmissionPolicy):
    """At most *capacity* requests in the system; overflow drops one.

    ``drop="newest"`` sheds the arriving request (classic tail drop);
    ``drop="oldest"`` admits the arrival and evicts the oldest queued entry
    (head drop -- fresher work is worth more than stale work that has
    already waited past its useful latency).  Either way the occupancy never
    exceeds *capacity*, which is what bounds the admitted-request tail.
    """

    kind = "bounded-queue"

    DROP_CHOICES = ("oldest", "newest")

    def __init__(self, *, capacity: int = 8, drop: str = "newest"):
        super().__init__()
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise LoadError(f"capacity must be a positive integer, got {capacity!r}")
        if drop not in self.DROP_CHOICES:
            raise LoadError(
                f"drop must be one of {', '.join(self.DROP_CHOICES)}, got {drop!r}"
            )
        self.capacity = capacity
        self.drop = drop

    def offer(self, now: int) -> AdmissionDecision:
        self.stats.offered += 1
        if self.stats.queued < self.capacity:
            self._admit()
            return AdmissionDecision(admitted=True)
        if self.drop == "newest":
            self.stats.shed += 1
            return AdmissionDecision(admitted=False)
        # drop-oldest: the arrival enters, the caller evicts its oldest queued
        # entry (and releases it), so occupancy is back at capacity.  The
        # transient +1 is not a real queue state; high-water stays at capacity.
        self.stats.shed += 1
        self.stats.admitted += 1
        self.stats.queued += 1
        return AdmissionDecision(admitted=True, evict_oldest=True)

    def describe(self) -> str:
        return f"{self.kind}(capacity={self.capacity}, drop={self.drop})"


class TokenBucketPolicy(AdmissionPolicy):
    """Rate-based shedding: admit only while tokens last.

    The bucket refills at ``rate`` tokens per kilotick up to ``burst``; each
    admission spends one token.  Unlike the bounded queue this sheds on
    *rate*, not occupancy -- a sustained overload is clipped to the refill
    rate no matter how fast the server drains, which makes the shed fraction
    track offered load directly.
    """

    kind = "token-bucket"

    def __init__(self, *, rate: float = 8.0, burst: float = 4.0):
        super().__init__()
        if not isinstance(rate, (int, float)) or isinstance(rate, bool) or rate <= 0:
            raise LoadError(f"token rate must be a positive number, got {rate!r}")
        if not isinstance(burst, (int, float)) or isinstance(burst, bool) or burst < 1:
            raise LoadError(f"burst must be >= 1, got {burst!r}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_now = 0

    def offer(self, now: int) -> AdmissionDecision:
        self.stats.offered += 1
        if now > self._last_now:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last_now) * self.rate / 1000.0
            )
            self._last_now = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self._admit()
            return AdmissionDecision(admitted=True)
        self.stats.shed += 1
        return AdmissionDecision(admitted=False)

    def describe(self) -> str:
        return f"{self.kind}(rate={self.rate:g}/ktick, burst={self.burst:g})"


PolicyFactory = Callable[..., AdmissionPolicy]

#: Stable kind name -> factory; policy-specific parameters are keyword-only.
POLICIES: dict[str, PolicyFactory] = {
    AcceptAllPolicy.kind: AcceptAllPolicy,
    BoundedQueuePolicy.kind: BoundedQueuePolicy,
    TokenBucketPolicy.kind: TokenBucketPolicy,
}


def admission_kinds() -> list[str]:
    """The registered admission-policy kinds, sorted."""
    return sorted(POLICIES)


def create_admission_policy(kind: str, **params) -> AdmissionPolicy:
    """Instantiate a registered policy; unknown kinds raise."""
    try:
        factory = POLICIES[kind]
    except KeyError:
        raise UnknownAdmissionError(kind) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise LoadError(f"bad parameters for admission policy {kind!r}: {exc}") from None
