"""Metadata for the detection system calls (Table 2 of the paper).

The calls themselves are ordinary system calls (see
:class:`repro.kernel.syscalls.Syscall` and their single-variant semantics in
:class:`repro.kernel.kernel.SimulatedKernel`); their security value comes
from the monitor comparing their canonicalized arguments across variants.
This module records the signatures and descriptions from Table 2 so that the
benchmark can regenerate the table verbatim, and provides the source-level
rewrite rules the transformation of Section 3.3 uses (e.g. how a UID
comparison is rewritten into a ``cc_*`` call).
"""

from __future__ import annotations

import dataclasses

from repro.kernel.syscalls import Syscall


@dataclasses.dataclass(frozen=True)
class DetectionCallSpec:
    """Signature and purpose of one detection system call."""

    syscall: Syscall
    signature: str
    description: str
    rewrites: str


#: Table 2 of the paper, row by row.
TABLE2_DETECTION_CALLS: tuple[DetectionCallSpec, ...] = (
    DetectionCallSpec(
        syscall=Syscall.UID_VALUE,
        signature="uid_t uid_value(uid_t)",
        description=(
            "Compares parameter value (across variants) and returns passed value."
        ),
        rewrites="getpwuid(uid) -> getpwuid(uid_value(uid))",
    ),
    DetectionCallSpec(
        syscall=Syscall.COND_CHK,
        signature="bool cond_chk(bool)",
        description="Checks conditional value given between variants is the same.",
        rewrites="(pw == NULL) -> cond_chk(pw == NULL)",
    ),
    DetectionCallSpec(
        syscall=Syscall.CC_EQ,
        signature="bool cc_eq(uid_t, uid_t)",
        description="Compares parameters and returns the truth value for ==.",
        rewrites="(uid == VARIANT_ROOT) -> cc_eq(uid, VARIANT_ROOT)",
    ),
    DetectionCallSpec(
        syscall=Syscall.CC_NEQ,
        signature="bool cc_neq(uid_t, uid_t)",
        description="Compares parameters and returns the truth value for !=.",
        rewrites="(uid != other) -> cc_neq(uid, other)",
    ),
    DetectionCallSpec(
        syscall=Syscall.CC_LT,
        signature="bool cc_lt(uid_t, uid_t)",
        description="Compares parameters and returns the truth value for <.",
        rewrites="(uid < other) -> cc_lt(uid, other)",
    ),
    DetectionCallSpec(
        syscall=Syscall.CC_LEQ,
        signature="bool cc_leq(uid_t, uid_t)",
        description="Compares parameters and returns the truth value for <=.",
        rewrites="(uid <= other) -> cc_leq(uid, other)",
    ),
    DetectionCallSpec(
        syscall=Syscall.CC_GT,
        signature="bool cc_gt(uid_t, uid_t)",
        description="Compares parameters and returns the truth value for >.",
        rewrites="(uid > other) -> cc_gt(uid, other)",
    ),
    DetectionCallSpec(
        syscall=Syscall.CC_GEQ,
        signature="bool cc_geq(uid_t, uid_t)",
        description="Compares parameters and returns the truth value for >=.",
        rewrites="(uid >= other) -> cc_geq(uid, other)",
    ),
)

#: Mapping from C comparison operators to the cc_* calls that replace them.
COMPARISON_TO_CALL: dict[str, Syscall] = {
    "==": Syscall.CC_EQ,
    "!=": Syscall.CC_NEQ,
    "<": Syscall.CC_LT,
    "<=": Syscall.CC_LEQ,
    ">": Syscall.CC_GT,
    ">=": Syscall.CC_GEQ,
}

#: Why the cc_* family exists even though cond_chk could express it
#: (verbatim rationale from Section 3.5, condensed): one syscall instead of
#: two per comparison, and the variants' instruction streams stay identical
#: because the operator reversal happens in the kernel, not in user space.
CC_FAMILY_RATIONALE = (
    "Using a single cc_* call checks both UID operands with one system call "
    "and keeps the variants' instruction streams identical; a user-space "
    "comparison in variant 1 would need its operators reversed because the "
    "XOR reexpression inverts ordering."
)
