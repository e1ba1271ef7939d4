"""Order statistics for the wall-clock benchmark."""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is only reported when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(count: int, percent: float) -> int:
    """The 1-based nearest-rank position of *percent* among *count* samples."""
    # The rounding keeps float error (99.9% of 10000 is 9990.000000000002)
    # from moving the rank up by one.
    return max(1, math.ceil(round(percent * count / 100.0, 6)))


def samples_beyond(count: int, percent: float) -> int:
    """How many of *count* sorted samples lie above the *percent* nearest rank."""
    return count - _rank(count, percent) if count else 0


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    admissible = [
        percent
        for percent in PERCENTILE_LADDER
        if samples_beyond(count, percent) >= MIN_SAMPLES_BEYOND
    ]
    return admissible[-1] if admissible else None


def percentile(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile of *values*; ``nan`` when there are none."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), percent) - 1]


def median(values: Sequence[float]) -> float:
    """The nearest-rank median (a sample, never an interpolation)."""
    return percentile(values, 50.0)


#: Pass times are summarised at this low percentile.  Noise on a shared host
#: only ever slows a pass down, so the fast end is what repeats between runs.
FAST_PERCENT = 10.0


def fast_throughput(passes: Iterable[tuple[int, int, float]]) -> float:
    """Work per second of a run, from each input set's fast pass time.

    *passes* are ``(input set, work, seconds)``; a set does the same work on
    every pass.  The result is the sets' summed work over the sum of their
    ``FAST_PERCENT`` pass times, so every set weighs in by its own cost.
    """
    by_set: dict[int, tuple[list[int], list[float]]] = {}
    for key, work, seconds in passes:
        works, times = by_set.setdefault(key, ([], []))
        works.append(work)
        times.append(seconds)
    work = sum(median(works) for works, _ in by_set.values())
    seconds = sum(percentile(times, FAST_PERCENT) for _, times in by_set.values())
    return work / seconds if seconds else 0.0
