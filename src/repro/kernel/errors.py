"""Error model for the simulated kernel.

The simulated kernel mirrors the Unix convention of reporting failures with
``errno`` codes.  System calls made by simulated programs never raise Python
exceptions across the kernel boundary for *expected* failures (permission
denied, missing file, bad descriptor, ...); instead they return a
:class:`~repro.kernel.syscalls.SyscallResult` carrying an :class:`Errno`.

Faults that correspond to hardware traps in the paper's setting --
segmentation faults from address-space partitioning, illegal-instruction
traps from instruction-set tagging -- are modelled as exceptions derived from
:class:`VariantFault`.  The N-variant monitor catches these and converts them
into alarms, exactly as the paper's monitor observes a variant crashing.
"""

from __future__ import annotations

import enum


class Errno(enum.IntEnum):
    """Subset of Unix errno values used by the simulated kernel."""

    OK = 0
    EPERM = 1
    ENOENT = 2
    ESRCH = 3
    EINTR = 4
    EIO = 5
    EBADF = 9
    EAGAIN = 11
    ENOMEM = 12
    EACCES = 13
    EFAULT = 14
    EEXIST = 17
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    ENFILE = 23
    EMFILE = 24
    ENOSPC = 28
    ESPIPE = 29
    EROFS = 30
    EPIPE = 32
    ERANGE = 34
    ENOSYS = 38
    ENOTEMPTY = 39
    ELOOP = 40
    ENOTSOCK = 88
    EADDRINUSE = 98
    ECONNRESET = 104
    ENOTCONN = 107
    ETIMEDOUT = 110
    ECONNREFUSED = 111


class KernelError(Exception):
    """Internal kernel error carrying an errno.

    Kernel subsystems (VFS, credential checks, descriptor tables) raise this
    to signal a failed operation.  The syscall dispatcher catches it and turns
    it into an error :class:`~repro.kernel.syscalls.SyscallResult`, so variant
    programs observe errno values rather than exceptions.
    """

    def __init__(self, errno: Errno, message: str = ""):
        self.errno = Errno(errno)
        self.message = message or self.errno.name
        super().__init__(f"[{self.errno.name}] {self.message}")


class VariantFault(Exception):
    """Base class for hardware-style faults that terminate a variant.

    These are the events the paper relies on for detection: a variant that
    receives attack data crafted for its sibling traps instead of executing
    the attacker's intent, and the monitor observes the divergence.
    """

    #: short machine-readable fault kind, overridden by subclasses
    kind = "fault"

    def __init__(self, message: str = "", *, address: int | None = None):
        self.address = address
        self.message = message
        super().__init__(message)


class SegmentationFault(VariantFault):
    """Raised when a variant accesses memory outside its address space.

    Under address-space partitioning (Figure 1 of the paper) an injected
    absolute address is valid in at most one variant; the other variant's
    access raises this fault, which the monitor reports as an attack.
    """

    kind = "segfault"


class IllegalInstructionFault(VariantFault):
    """Raised when a variant executes an instruction with the wrong tag.

    Under instruction-set tagging, injected (untagged or wrongly tagged)
    instructions fail the tag check in at least one variant.
    """

    kind = "illegal-instruction"
