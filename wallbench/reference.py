"""How fast the host runs right now, from a fixed pure-Python loop.

Other virtual machines on a shared host can slow this one by half for
minutes at a time. Every pass of the simulator slows with it, and so does
this loop. The run times the loop between passes and scales its wall-clock
figures by the loop's fast time over ``REFERENCE_LOOP_S``. The loop does not
touch the simulator, so no change to the program can move it.

Do not edit ``reference_loop``: ``REFERENCE_LOOP_S`` was measured with this
exact code, and a scaled figure is only comparable to others taken with it.
"""

from __future__ import annotations

import time
from typing import Sequence

from wallbench.stats import FAST_PERCENT, percentile

#: The loop's 10th-percentile time on an idle 2-core x86_64 host, CPython 3.11.7.
REFERENCE_LOOP_S = 0.0058


def reference_loop() -> float:
    """Run the fixed loop once; returns its wall time in seconds."""
    start = time.perf_counter_ns()
    table: dict = {}
    acc = 0
    for i in range(20000):
        key = ("k", i & 255)
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
        if i % 7 == 0:
            acc ^= hash(key) & 0xFF
    return (time.perf_counter_ns() - start) / 1e9


def host_slowdown(loop_seconds: Sequence[float]) -> float:
    """How much slower than the reference host this run's loop went."""
    return percentile(loop_seconds, FAST_PERCENT) / REFERENCE_LOOP_S
