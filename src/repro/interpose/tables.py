"""Syscall-table interposition: monitoring policy as data, not code.

The monitor and wrapper layers historically hard-coded a handful of frozen
syscall sets (``DETECTION_SYSCALLS`` and the ``UID_*`` families in
:mod:`repro.core.monitor`, ``FD_SYSCALLS`` in :mod:`repro.core.wrappers`).
That made the comparator's coverage a property of the source code: widening
the monitored surface -- or narrowing it for an ablation -- meant editing the
dispatchers.  Following the classic kernel extension point (syscall-table
interception, lkmpg ch.10), this module turns the policy into a first-class
table: an :class:`InterpositionTable` maps every :class:`~repro.kernel.syscalls.Syscall`
to an :class:`InterpositionEntry` describing how the lockstep layers must
treat it, and the engine consults the session's *active* table instead of
module constants.

Two tables ship registered:

* ``"classic"`` reproduces the historical behaviour bit for bit.  It is
  built *definitionally* from the same frozen sets the dispatchers used to
  consult, so the old and new code paths cannot drift apart.
* ``"wide"`` extends monitoring to the thinly-covered families: ``fork`` /
  ``waitpid`` are denied outright (a served workload has no business
  forking; the wrapper reports a uniform ``EPERM`` without entering the
  kernel), ``kill`` fans out per variant so each variant's signal delivery
  is subject to its own privilege checks, and the externally-visible output
  family (``write``/``send``/``bind``/``listen``/...) is flagged so argument
  divergence classifies as :attr:`~repro.core.alarm.AlarmType.OUTPUT_MISMATCH`
  rather than a generic argument mismatch.

Policies (:class:`PolicyKind`) describe *how a round of equivalent requests
executes and is compared*:

* ``compare-args`` -- executed per variant; arguments compared verbatim
  (the detection calls of Table 2).
* ``compare-uid-decoded`` -- executed per variant; UID-typed arguments are
  compared after each variant's inverse reexpression (the setuid family).
* ``replicate`` -- executed once by variant 0, the result replicated to all
  (input and output calls; removes input non-determinism).
* ``fan-out-per-variant`` -- executed independently by every variant
  (credentials, detection state, exits, per-variant memory).
* ``passthrough`` -- executed per variant with no diversity semantics at
  all (the attacker's ``peek`` probe primitive).
* ``deny`` -- refused by the wrapper with a uniform ``EPERM`` before the
  kernel is entered; counted in ``WrapperStats.denied_calls``.

Orthogonal structural flags (``fd_arg``, ``creates_fd``, ``uid_args``,
``detection``, ``output``) carry what the dispatchers need beyond the
headline policy: descriptor-table alignment, UID argument positions for
alarm classification, and output-family tagging.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, Mapping

from repro.kernel.syscalls import (
    DETECTION_SYSCALLS,
    INPUT_SYSCALLS,
    OUTPUT_SYSCALLS,
    Syscall,
    UID_COMPARISON_SYSCALLS,
    UID_PARAMETER_SYSCALLS,
)


class InterpositionError(ValueError):
    """An unknown interposition table was named (CLI exit-2 material)."""


class PolicyKind(enum.Enum):
    """How one system call is executed and compared across the variants."""

    COMPARE_ARGS = "compare-args"
    COMPARE_UID_DECODED = "compare-uid-decoded"
    REPLICATE = "replicate"
    FAN_OUT = "fan-out-per-variant"
    PASSTHROUGH = "passthrough"
    DENY = "deny"


@dataclasses.dataclass(frozen=True)
class InterpositionEntry:
    """Policy for one system call.

    ``fd_arg`` marks calls whose first argument is a descriptor (routed
    through the shared/unshared descriptor dispatch); ``creates_fd`` marks
    calls that install a new descriptor and must keep variant tables
    aligned; ``uid_args`` lists the argument positions carrying uid_t/gid_t
    values (drives UID-divergence classification); ``detection`` marks the
    Table-2 detection calls; ``output`` marks externally-visible calls whose
    argument divergence is an output mismatch.
    """

    syscall: Syscall
    policy: PolicyKind
    fd_arg: bool = False
    creates_fd: bool = False
    uid_args: tuple[int, ...] = ()
    detection: bool = False
    output: bool = False


#: The fallback for syscalls a table does not mention: executed per variant,
#: compared verbatim -- exactly the historical ``else`` branch.
_DEFAULT_ENTRY_POLICY = PolicyKind.FAN_OUT


class InterpositionTable:
    """A complete named mapping from syscalls to interposition entries.

    The table is immutable after construction and precomputes the frozen
    views the hot paths consult (detection set, UID families, descriptor
    sets), so consulting a table costs what consulting the old module
    constants did.
    """

    def __init__(
        self,
        name: str,
        entries: Iterable[InterpositionEntry],
        *,
        description: str = "",
    ):
        self.name = name
        self.description = description
        self._entries: dict[Syscall, InterpositionEntry] = {}
        for entry in entries:
            if entry.syscall in self._entries:
                raise ValueError(
                    f"duplicate interposition entry for {entry.syscall.value!r}"
                )
            self._entries[entry.syscall] = entry

        self.detection_syscalls = frozenset(
            sc for sc, e in self._entries.items() if e.detection
        )
        #: Detection calls comparing uid_t parameters (the cc_* family).
        self.uid_comparison_syscalls = frozenset(
            sc for sc, e in self._entries.items() if e.detection and e.uid_args
        )
        #: Non-detection calls taking uid_t/gid_t parameters, with positions.
        self.uid_parameter_syscalls: dict[Syscall, tuple[int, ...]] = {
            sc: e.uid_args
            for sc, e in self._entries.items()
            if e.uid_args and not e.detection
        }
        self.fd_syscalls = frozenset(
            sc for sc, e in self._entries.items() if e.fd_arg
        )
        self.descriptor_creating_syscalls = frozenset(
            sc for sc, e in self._entries.items() if e.creates_fd
        )
        self.replicated_syscalls = frozenset(
            sc
            for sc, e in self._entries.items()
            if e.policy is PolicyKind.REPLICATE
        )
        self.denied_syscalls = frozenset(
            sc for sc, e in self._entries.items() if e.policy is PolicyKind.DENY
        )
        self.output_syscalls = frozenset(
            sc for sc, e in self._entries.items() if e.output
        )

    # -- lookup ---------------------------------------------------------------

    def entry(self, syscall: Syscall) -> InterpositionEntry:
        """The entry for *syscall* (an implicit fan-out entry when absent)."""
        found = self._entries.get(syscall)
        if found is not None:
            return found
        return InterpositionEntry(syscall=syscall, policy=_DEFAULT_ENTRY_POLICY)

    def policy(self, syscall: Syscall) -> PolicyKind:
        """The headline policy for *syscall*."""
        return self.entry(syscall).policy

    def entries(self) -> Mapping[Syscall, InterpositionEntry]:
        """Read-only view of the explicit entries (for reports and docs)."""
        return dict(self._entries)

    def replaced(
        self, name: str, overrides: Iterable[InterpositionEntry], *, description: str = ""
    ) -> "InterpositionTable":
        """A derived table with *overrides* replacing the matching entries."""
        merged = dict(self._entries)
        for entry in overrides:
            merged[entry.syscall] = entry
        return InterpositionTable(
            name, merged.values(), description=description or self.description
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InterpositionTable({self.name!r}, {len(self._entries)} entries)"


# ---------------------------------------------------------------------------
# The classic table: today's behaviour, derived from the historical sets
# ---------------------------------------------------------------------------

#: Calls whose first argument is a file descriptor (the wrappers' historical
#: descriptor set, restated here so the table owns the policy).
_CLASSIC_FD_SYSCALLS = frozenset(
    {
        Syscall.READ,
        Syscall.WRITE,
        Syscall.LSEEK,
        Syscall.FSTAT,
        Syscall.CLOSE,
        Syscall.RECV,
        Syscall.SEND,
        Syscall.SHUTDOWN,
        Syscall.BIND,
        Syscall.LISTEN,
    }
)

_CLASSIC_DESCRIPTOR_CREATING = frozenset({Syscall.SOCKET, Syscall.ACCEPT})

_CLASSIC_REPLICATED = frozenset(
    {Syscall.TIME, Syscall.GETRANDOM, Syscall.GETDENTS, Syscall.GETPID}
)


def _classic_entries() -> list[InterpositionEntry]:
    """Every syscall's classic entry, derived from the frozen policy sets."""
    entries = []
    once = (
        INPUT_SYSCALLS
        | OUTPUT_SYSCALLS
        | _CLASSIC_REPLICATED
        | _CLASSIC_DESCRIPTOR_CREATING
        | {Syscall.OPEN}
    )
    for sc in Syscall:
        detection = sc in DETECTION_SYSCALLS
        if detection:
            policy = PolicyKind.COMPARE_ARGS
        elif sc in UID_PARAMETER_SYSCALLS and sc not in once:
            policy = PolicyKind.COMPARE_UID_DECODED
        elif sc in once:
            policy = PolicyKind.REPLICATE
        elif sc is Syscall.PEEK:
            policy = PolicyKind.PASSTHROUGH
        else:
            policy = PolicyKind.FAN_OUT
        if sc in UID_COMPARISON_SYSCALLS:
            uid_args: tuple[int, ...] = (0, 1)
        else:
            uid_args = UID_PARAMETER_SYSCALLS.get(sc, ())
        entries.append(
            InterpositionEntry(
                syscall=sc,
                policy=policy,
                fd_arg=sc in _CLASSIC_FD_SYSCALLS,
                creates_fd=sc in _CLASSIC_DESCRIPTOR_CREATING,
                uid_args=uid_args,
                detection=detection,
            )
        )
    return entries


CLASSIC_TABLE = InterpositionTable(
    "classic",
    _classic_entries(),
    description=(
        "The historical monitoring surface, bit-for-bit: input replication, "
        "once-only output, per-variant credentials and detection calls."
    ),
)


# ---------------------------------------------------------------------------
# The wide table: fork/exec, signal and socket families actively monitored
# ---------------------------------------------------------------------------

def _wide_overrides() -> list[InterpositionEntry]:
    overrides = [
        # A served workload never forks mid-request; a variant that suddenly
        # wants to is more likely compromised than busy.  Deny uniformly at
        # the wrapper, without ever entering the kernel.
        InterpositionEntry(syscall=Syscall.FORK, policy=PolicyKind.DENY),
        InterpositionEntry(syscall=Syscall.WAITPID, policy=PolicyKind.DENY),
        # Signal delivery fans out so each variant's kill is subject to its
        # own credential checks -- a diverged target pid or signal number is
        # caught by the comparator before delivery, and classified as an
        # output mismatch (a signal is externally visible behaviour).
        InterpositionEntry(
            syscall=Syscall.KILL, policy=PolicyKind.FAN_OUT, output=True
        ),
    ]
    # Externally-visible calls: argument divergence means the variants tried
    # to emit different behaviour to the outside world -- classify it as an
    # output mismatch instead of a generic argument mismatch.
    classic = {e.syscall: e for e in _classic_entries()}
    for sc in sorted(OUTPUT_SYSCALLS | {Syscall.BIND, Syscall.LISTEN}, key=lambda s: s.value):
        if sc is Syscall.KILL:
            continue
        base = classic[sc]
        overrides.append(dataclasses.replace(base, output=True))
    return overrides


WIDE_TABLE = CLASSIC_TABLE.replaced(
    "wide",
    _wide_overrides(),
    description=(
        "The classic surface plus active monitoring of the fork/exec, signal "
        "and socket families: fork/waitpid denied, kill fanned out per "
        "variant, output-family divergence classified as output mismatch."
    ),
)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_TABLES: dict[str, InterpositionTable] = {}


def register_table(table: InterpositionTable) -> InterpositionTable:
    """Register *table* under its name (last registration wins)."""
    _TABLES[table.name] = table
    return table


def table_names() -> list[str]:
    """All registered table names, sorted."""
    return sorted(_TABLES)


def get_table(name: str) -> InterpositionTable:
    """Look up a registered table; unknown names raise :class:`InterpositionError`."""
    try:
        return _TABLES[name]
    except KeyError:
        raise InterpositionError(
            f"unknown interposition table {name!r}; registered tables: "
            f"{', '.join(table_names())}"
        ) from None


register_table(CLASSIC_TABLE)
register_table(WIDE_TABLE)
