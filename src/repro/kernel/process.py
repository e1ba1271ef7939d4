"""Simulated processes.

A process bundles the state the paper's kernel modifications track per
variant: credentials (the data under attack), a descriptor table (kept
slot-synchronised across variants for unshared files), an address space, a
signal state, and bookkeeping counters used by the performance model.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from repro.kernel.credentials import Credentials, root_credentials
from repro.kernel.filetable import FileDescriptorTable
from repro.kernel.signals import SignalState
from repro.memory.address_space import AddressSpace


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    EXITED = "exited"
    FAULTED = "faulted"


_RUNNABLE = ProcessState.RUNNABLE
_BLOCKED = ProcessState.BLOCKED


@dataclasses.dataclass
class ProcessStats:
    """Per-process accounting used by the virtual-time performance model."""

    syscall_count: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    compute_units: float = 0.0

    def charge_compute(self, units: float) -> None:
        """Add *units* of CPU work performed by this process."""
        self.compute_units += units


class Process:
    """One simulated process (or one variant of an N-variant system)."""

    def __init__(
        self,
        pid: int,
        name: str = "proc",
        *,
        credentials: Optional[Credentials] = None,
        address_space: Optional[AddressSpace] = None,
        cwd: str = "/",
    ):
        self.pid = pid
        self.name = name
        self.credentials = credentials if credentials is not None else root_credentials()
        self.address_space = address_space if address_space is not None else AddressSpace()
        self.fds = FileDescriptorTable()
        self.signals = SignalState()
        self.cwd = cwd
        self.state = ProcessState.RUNNABLE
        self.exit_code: Optional[int] = None
        self.fault_reason: Optional[str] = None
        self.stats = ProcessStats()

    # -- lifecycle ----------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the process has not exited or faulted."""
        state = self.state
        return state is _RUNNABLE or state is _BLOCKED

    def exit(self, code: int) -> None:
        """Mark the process as exited with *code* and release descriptors."""
        self.exit_code = code
        self.state = ProcessState.EXITED
        self.fds.close_all()

    def fault(self, reason: str) -> None:
        """Mark the process as terminated by a fault (segfault, kill, ...)."""
        self.fault_reason = reason
        self.state = ProcessState.FAULTED
        self.fds.close_all()

    def __repr__(self) -> str:
        return f"<Process pid={self.pid} name={self.name!r} state={self.state.value}>"


class ProcessTable:
    """The kernel's table of live and reaped processes."""

    def __init__(self) -> None:
        self._processes: dict[int, Process] = {}
        self._next_pid = 1

    def spawn(
        self,
        name: str = "proc",
        *,
        credentials: Optional[Credentials] = None,
        address_space: Optional[AddressSpace] = None,
    ) -> Process:
        """Create a new process and register it."""
        process = Process(
            self._next_pid,
            name,
            credentials=credentials,
            address_space=address_space,
        )
        self._processes[process.pid] = process
        self._next_pid += 1
        return process

    def get(self, pid: int) -> Optional[Process]:
        """Look up a process by pid (``None`` if unknown)."""
        return self._processes.get(pid)

    def alive(self) -> list[Process]:
        """All processes that have not exited or faulted."""
        return [p for p in self._processes.values() if p.alive]

    def all(self) -> list[Process]:
        """All processes ever spawned, in pid order."""
        return [self._processes[pid] for pid in sorted(self._processes)]
