"""Minimal signal model.

The paper notes (Section 3.1) that its prototype framework does not yet
handle scheduling divergence caused by asynchronous signal delivery -- a
signal arriving at different points in two variants' executions can cause a
*false* divergence.  We model signals just richly enough to reproduce that
discussion: signals are posted to processes, delivery is checked only at
system-call boundaries (so delivery points are deterministic in lockstep
runs), and the N-variant engine offers a fault-injection hook that delivers a
signal to only one variant to demonstrate the false-alarm scenario.
"""

from __future__ import annotations

import enum


class Signal(enum.IntEnum):
    """Subset of Unix signal numbers used by the simulation."""

    SIGHUP = 1
    SIGINT = 2
    SIGKILL = 9
    SIGSEGV = 11
    SIGPIPE = 13
    SIGTERM = 15
    SIGCHLD = 17
    SIGUSR1 = 10
    SIGUSR2 = 12


#: Signals whose default action terminates the process.
FATAL_BY_DEFAULT = frozenset(
    {Signal.SIGHUP, Signal.SIGINT, Signal.SIGKILL, Signal.SIGSEGV, Signal.SIGPIPE, Signal.SIGTERM}
)


class SignalState:
    """Pending signals for one process."""

    def __init__(self) -> None:
        self.pending: list[Signal] = []

    def post(self, signal: Signal) -> None:
        """Queue *signal* for delivery at the next system-call boundary."""
        self.pending.append(Signal(signal))
