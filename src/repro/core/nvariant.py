"""The lockstep N-variant execution engine.

This is the reproduction of the paper's ``nvexec`` framework: it launches N
variants of a program, synchronises them at system-call boundaries, routes
every call through the monitor and the wrapper layer, and converts any
divergence into an alarm.

Programs are generator coroutines (:data:`Program`): each yields a
:class:`~repro.kernel.syscalls.SyscallRequest` whenever it needs a kernel
service and receives the :class:`~repro.kernel.syscalls.SyscallResult` back.  A
*program factory* builds one generator per variant from a
:class:`VariantContext` carrying that variant's process, address space and
embedded data codec.  The codec is how the reproduction models the build-time
source transformation of Section 3.3: the transformed program asks its
context for the variant's representation of UID constants instead of using
literal values.

The lockstep loop itself lives in :mod:`repro.engine.session`, where it is a
resumable *session* that a cooperative scheduler can interleave with other
sessions.  :func:`nvexec` builds one session and runs it to completion.  With
``num_variants=1`` the same session runs the unprotected single-process
baseline.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Generator, Optional, Sequence

from repro.core.alarm import Alarm
from repro.core.monitor import Monitor
from repro.core.variations.base import Variation
from repro.core.wrappers import WrapperStats
from repro.kernel.kernel import SimulatedKernel
from repro.kernel.libc import Libc
from repro.kernel.process import Process
from repro.kernel.syscalls import SyscallRequest, SyscallResult

Program = Generator[SyscallRequest, SyscallResult, Any]


class UIDCodec:
    """A variant's embedded view of UID representations.

    Transformed programs (Section 3.3) replace every UID constant ``c`` with
    ``R_i(c)``; in this reproduction the program calls ``codec.constant(c)``
    at the points where the source transformation would have substituted the
    literal.  For an untransformed program, or for variant 0, the codec is
    the identity.

    The variant's own forward and inverse functions are bound as attributes,
    so a program's ``constant``, ``encode`` or ``decode`` is one call.
    """

    def __init__(self, encode: Callable[[int], int], decode: Callable[[int], int]):
        #: The variant's representation of the trusted UID constant *uid*.
        self.constant = encode
        #: Alias of :attr:`constant`; reads better in data-flow contexts.
        self.encode = encode
        #: Semantic UID behind the variant's concrete *value*.
        self.decode = decode
        #: The variant's representation of root (``VARIANT_ROOT`` in the paper).
        self.root = encode(0)

    @classmethod
    def identity(cls) -> "UIDCodec":
        """The codec of an untransformed program (one instance, shared: a codec
        holds no per-variant state)."""
        return _IDENTITY_CODEC


def _identity(value: int) -> int:
    return value


_IDENTITY_CODEC = UIDCodec(_identity, _identity)


@dataclasses.dataclass
class VariantContext:
    """Everything a variant program needs at construction time."""

    index: int
    process: Process
    libc: Libc
    uid_codec: UIDCodec

    @property
    def address_space(self):
        """The variant's address space (possibly partitioned)."""
        return self.process.address_space


@dataclasses.dataclass
class VariantOutcome:
    """Final state of one variant after a lockstep run."""

    index: int
    exit_code: Optional[int]
    fault: Optional[str]
    return_value: Any = None
    syscall_count: int = 0

    @property
    def exited_normally(self) -> bool:
        """True when the variant finished without trapping."""
        return self.fault is None


@dataclasses.dataclass
class NVariantResult:
    """Outcome of running an N-variant system to completion (or to an alarm)."""

    alarms: list[Alarm]
    variants: list[VariantOutcome]
    lockstep_rounds: int
    wrapper_stats: WrapperStats
    monitor: Monitor

    @property
    def attack_detected(self) -> bool:
        """True when the monitor raised at least one alarm."""
        return bool(self.alarms)

    @property
    def completed_normally(self) -> bool:
        """True when every variant exited cleanly and no alarm fired."""
        return not self.alarms and all(v.exited_normally for v in self.variants)

    def first_alarm(self) -> Optional[Alarm]:
        """The first alarm raised, if any."""
        return self.alarms[0] if self.alarms else None

    def describe(self) -> str:
        """Readable multi-line summary for examples and reports."""
        lines = [
            f"lockstep rounds: {self.lockstep_rounds}",
            f"alarms: {len(self.alarms)}",
        ]
        for alarm in self.alarms:
            lines.append(f"  {alarm.describe()}")
        for variant in self.variants:
            status = "ok" if variant.exited_normally else f"fault: {variant.fault}"
            lines.append(
                f"  variant {variant.index}: exit={variant.exit_code} "
                f"syscalls={variant.syscall_count} [{status}]"
            )
        return "\n".join(lines)


def nvexec(
    kernel: SimulatedKernel,
    program_factory: Callable[[VariantContext], Program],
    variations: Sequence[Variation] = (),
    *,
    num_variants: int = 2,
) -> NVariantResult:
    """Launch and run an N-variant system in one call (the paper's ``nvexec``)."""
    # Deferred import: repro.engine.session imports this module for the
    # shared context/result dataclasses.
    from repro.engine.session import NVariantSession

    return NVariantSession(
        kernel,
        program_factory,
        variations,
        num_variants=num_variants,
        name="nvariant",
    ).run()
