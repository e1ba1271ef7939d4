"""System call interface between variant programs and the simulated kernel.

Programs in this reproduction are Python generator coroutines.  Whenever the
program needs a kernel service it *yields* a :class:`SyscallRequest`; the
execution engine (either the plain :class:`~repro.kernel.kernel.SimulatedKernel`
for a single process, or the :class:`~repro.engine.session.NVariantSession`
lockstep engine for a redundant system) performs the call and sends back a
:class:`SyscallResult`.  This is the exact boundary the paper instruments:
system calls are the synchronisation points, the monitoring points, and the
place where inverse reexpression functions are applied.

The classification sets at the bottom of the module encode the wrapper policy
from Sections 3.1 and 3.5 of the paper:

* ``INPUT_SYSCALLS`` are performed once and the same data is sent to all
  variants (so the attacker necessarily delivers identical bytes everywhere).
* ``OUTPUT_SYSCALLS`` are checked for equivalence across variants and
  performed once.
* ``UID_PARAMETER_SYSCALLS`` take uid_t/gid_t arguments; the wrapper applies
  the variant's inverse reexpression function to those arguments and checks
  that the decoded values agree across variants.
* ``UID_RESULT_SYSCALLS`` return uid_t/gid_t values; the wrapper applies the
  variant's (forward) reexpression function to the trusted result.
* ``DETECTION_SYSCALLS`` are the new calls from Table 2 of the paper.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any

from repro.kernel.errors import Errno


class Syscall(enum.Enum):
    """Names of the system calls understood by the simulated kernel."""

    # -- process control ---------------------------------------------------
    EXIT = "exit"
    GETPID = "getpid"
    FORK = "fork"
    WAITPID = "waitpid"
    KILL = "kill"

    # -- credentials -------------------------------------------------------
    GETUID = "getuid"
    GETEUID = "geteuid"
    GETGID = "getgid"
    GETEGID = "getegid"
    SETUID = "setuid"
    SETEUID = "seteuid"
    SETREUID = "setreuid"
    SETRESUID = "setresuid"
    SETGID = "setgid"
    SETEGID = "setegid"
    SETGROUPS = "setgroups"

    # -- filesystem --------------------------------------------------------
    OPEN = "open"
    CLOSE = "close"
    READ = "read"
    WRITE = "write"
    LSEEK = "lseek"
    STAT = "stat"
    FSTAT = "fstat"
    ACCESS = "access"
    MKDIR = "mkdir"
    UNLINK = "unlink"
    RENAME = "rename"
    CHOWN = "chown"
    CHMOD = "chmod"
    GETDENTS = "getdents"
    CHDIR = "chdir"

    # -- sockets (simplified network model) --------------------------------
    SOCKET = "socket"
    BIND = "bind"
    LISTEN = "listen"
    ACCEPT = "accept"
    RECV = "recv"
    SEND = "send"
    SHUTDOWN = "shutdown"

    # -- misc --------------------------------------------------------------
    TIME = "time"
    GETRANDOM = "getrandom"
    NANOSLEEP = "nanosleep"
    # A checked read of the caller's own address space: returns the bytes at
    # an absolute address or fails with EFAULT instead of segfaulting.  It is
    # deliberately absent from every policy set below, so the wrapper executes
    # it per variant against each variant's own memory -- the probe primitive
    # of the brute-force attacker model (repro.security).
    PEEK = "peek"

    # -- detection system calls added by the paper (Table 2) ----------------
    UID_VALUE = "uid_value"
    COND_CHK = "cond_chk"
    CC_EQ = "cc_eq"
    CC_NEQ = "cc_neq"
    CC_LT = "cc_lt"
    CC_LEQ = "cc_leq"
    CC_GT = "cc_gt"
    CC_GEQ = "cc_geq"

    # Members are singletons, so identity hashing agrees with equality and
    # runs in C; Enum's default hashes the member name in Python on every
    # set or dict lookup, which the lockstep hot path does several times a
    # round.
    __hash__ = object.__hash__


_set_attribute = object.__setattr__
# Bound once: attribute access on an Enum class goes through the metaclass's
# ``__getattr__`` hook, several times slower than a module global.
_ERRNO_OK = Errno.OK


@dataclasses.dataclass(frozen=True, slots=True, init=False)
class SyscallRequest:
    """A trap into the kernel: the call name and its positional arguments."""

    name: Syscall
    args: tuple[Any, ...]

    def __init__(self, name: Syscall, args: tuple[Any, ...] = ()) -> None:
        if not isinstance(name, Syscall):
            raise TypeError(f"SyscallRequest.name must be a Syscall, got {name!r}")
        _set_attribute(self, "name", name)
        _set_attribute(self, "args", args if isinstance(args, tuple) else tuple(args))

    def with_args(self, args: tuple[Any, ...]) -> "SyscallRequest":
        """Return a copy of this request with substituted arguments."""
        return _trusted_request(self.name, tuple(args))

    def describe(self) -> str:
        """Human-readable one-line rendering, used in alarms and traces."""
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.name.value}({rendered})"


@dataclasses.dataclass(frozen=True, slots=True)
class SyscallResult:
    """The kernel's reply to a :class:`SyscallRequest`.

    ``errno`` is always an :class:`Errno` member (:meth:`failure` converts
    plain integers), so success is an identity test.
    """

    value: Any = 0
    errno: Errno = Errno.OK

    @property
    def ok(self) -> bool:
        """True when the call succeeded."""
        return self.errno is _ERRNO_OK

    @classmethod
    def success(cls, value: Any = 0) -> "SyscallResult":
        """Build a successful result carrying *value*."""
        return cls(value=value, errno=Errno.OK)

    @classmethod
    def failure(cls, errno: Errno, value: Any = -1) -> "SyscallResult":
        """Build a failed result carrying *errno* (value defaults to -1)."""
        return cls(value=value, errno=Errno(errno))


# Trusted construction for the hot paths.  The generated ``__init__`` of a
# frozen dataclass (and the request's own type check) cost several hundred
# nanoseconds; writing the slots through their member descriptors skips both.
# Only callers that already hold a ``Syscall`` member and an argument tuple
# (the libc helpers, ``with_args``) or a successful value (the kernel) use
# these; everything public keeps its checks.
_new_object = object.__new__
_set_request_name = SyscallRequest.__dict__["name"].__set__
_set_request_args = SyscallRequest.__dict__["args"].__set__
_set_result_value = SyscallResult.__dict__["value"].__set__
_set_result_errno = SyscallResult.__dict__["errno"].__set__


def _trusted_request(name: Syscall, args: tuple[Any, ...]) -> SyscallRequest:
    """``SyscallRequest(name, args)`` for a known ``Syscall`` and tuple, unchecked."""
    trap = _new_object(SyscallRequest)
    _set_request_name(trap, name)
    _set_request_args(trap, args)
    return trap


# The successes the kernel returns most -- small descriptors, counts and
# zeros, ``True`` and an empty read -- are built once and shared.  Both
# types are frozen, so a shared instance is indistinguishable from a fresh
# one to everything but an identity test, and nothing tests them by identity.
_SHARED_INT_COUNT = 64
_SHARED_INTS = tuple(SyscallResult(value) for value in range(_SHARED_INT_COUNT))
_SHARED_TRUE = SyscallResult(True)
_SHARED_EMPTY = SyscallResult(b"")


def _trusted_success(value: Any) -> SyscallResult:
    """``SyscallResult(value, Errno.OK)`` without the dataclass constructor."""
    if value.__class__ is int:
        if 0 <= value < _SHARED_INT_COUNT:
            return _SHARED_INTS[value]
    elif value is True:
        return _SHARED_TRUE
    elif value.__class__ is bytes and not value:
        return _SHARED_EMPTY
    result = _new_object(SyscallResult)
    _set_result_value(result, value)
    _set_result_errno(result, _ERRNO_OK)
    return result


# ---------------------------------------------------------------------------
# Wrapper policy classification (Sections 3.1 and 3.5 of the paper)
# ---------------------------------------------------------------------------

#: Calls whose data originates outside the system.  Performed once; the same
#: result is replicated to every variant.
INPUT_SYSCALLS = frozenset(
    {
        Syscall.READ,
        Syscall.RECV,
        Syscall.ACCEPT,
        Syscall.GETDENTS,
        Syscall.TIME,
        Syscall.GETRANDOM,
    }
)

#: Calls with externally visible effects.  Arguments are checked for
#: equivalence across variants and the call is issued once.
OUTPUT_SYSCALLS = frozenset(
    {
        Syscall.WRITE,
        Syscall.SEND,
        Syscall.UNLINK,
        Syscall.RENAME,
        Syscall.MKDIR,
        Syscall.CHOWN,
        Syscall.CHMOD,
        Syscall.KILL,
        Syscall.SHUTDOWN,
    }
)

#: Calls taking uid_t/gid_t parameters; the target interface of the UID
#: variation.  The wrapper applies inverse reexpression to the UID arguments.
#: Maps syscall -> indices of the UID-typed arguments.
UID_PARAMETER_SYSCALLS: dict[Syscall, tuple[int, ...]] = {
    Syscall.SETUID: (0,),
    Syscall.SETEUID: (0,),
    Syscall.SETREUID: (0, 1),
    Syscall.SETRESUID: (0, 1, 2),
    Syscall.SETGID: (0,),
    Syscall.SETEGID: (0,),
    Syscall.CHOWN: (1, 2),
}

#: Calls returning uid_t/gid_t values; the wrapper applies the forward
#: reexpression function to the (trusted) result for each variant.
UID_RESULT_SYSCALLS = frozenset(
    {
        Syscall.GETUID,
        Syscall.GETEUID,
        Syscall.GETGID,
        Syscall.GETEGID,
    }
)

#: The new detection calls from Table 2 of the paper.
DETECTION_SYSCALLS = frozenset(
    {
        Syscall.UID_VALUE,
        Syscall.COND_CHK,
        Syscall.CC_EQ,
        Syscall.CC_NEQ,
        Syscall.CC_LT,
        Syscall.CC_LEQ,
        Syscall.CC_GT,
        Syscall.CC_GEQ,
    }
)

#: Detection calls that compare two uid_t parameters (the cc_* family).
UID_COMPARISON_SYSCALLS = frozenset(
    {
        Syscall.CC_EQ,
        Syscall.CC_NEQ,
        Syscall.CC_LT,
        Syscall.CC_LEQ,
        Syscall.CC_GT,
        Syscall.CC_GEQ,
    }
)

#: Calls that accept a pathname as their first argument (used by the
#: unshared-files mechanism to redirect opens of diversified files).
PATH_SYSCALLS = frozenset(
    {
        Syscall.OPEN,
        Syscall.STAT,
        Syscall.ACCESS,
        Syscall.MKDIR,
        Syscall.UNLINK,
        Syscall.CHOWN,
        Syscall.CHMOD,
        Syscall.CHDIR,
        Syscall.GETDENTS,
    }
)


def request(name: Syscall, *args: Any) -> SyscallRequest:
    """Convenience constructor: ``request(Syscall.OPEN, "/etc/passwd", 0)``."""
    return SyscallRequest(name, tuple(args))
