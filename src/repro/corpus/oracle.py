"""The analytic oracle: expected outcomes derived from the guarantee.

Every corpus record's expectation is *computed*, not asserted: the oracle
reconstructs the spec's actual re-expression layout (the same construction
path :func:`repro.api.builders.build_variations` uses at run time, so keyed
schemes with pinned seeds reproduce the exact drawn masks and bases) and
applies the paper's detection argument byte for byte.

**UID family.**  A corruption that touches the low ``span`` bytes of every
variant's stored ``worker_uid`` is detected iff some pair of masks differs
within those bytes -- XOR re-expression means decoded values diverge exactly
when the masks do.  The corruption *span* accounts for the strcpy
terminator: a remote partial overwrite of ``k < 4`` bytes lands ``k``
attacker bytes plus a terminating zero (span ``k + 1``); an in-place
``partial-bytes`` corruption has no terminator (span ``k``); the off-by-one
annotation is terminator-only (span 1).  Bit flips XOR an identical delta
into every variant, which *commutes* with XOR re-expression: every variant's
decode shifts by the same delta, the monitor sees agreement, and the flip is
guarantee-exempt for every mask scheme -- the corpus's deliberately
outside-the-guarantee mutation class.  When no pair diverges, the decoded
value every variant agrees on decides the rest: decoding to uid 0 keeps the
worker root, decoding to an invalid uid_t makes the credential drop fail
EINVAL and *also* leaves the process root (both undetected compromises),
and any other value is absorbed (no effect).

**Address family.**  The banner pointer is fully or partially overwritten;
on the next request every variant dereferences its corrupted pointer for the
16-byte banner.  A variant's read succeeds iff the pointer still lies in
that variant's partition and maps to a nominal address with 16 readable
bytes; *any* failed read faults, and any fault raises an alarm (even when
every variant faults -- unanimous crashes still halt the session as
detected).  Complete injections are therefore always detected under any
N >= 2 carving scheme: partitions are disjoint, so at most one variant's
read can succeed.  The exempt class is the *partial* overwrite that
preserves every variant's partition-selecting high bytes and lands all
variants on the same nominal offset -- every read succeeds with identical
bytes and the attacker retains pointer control undetected (the Section 2.3
case; the extended/slid schemes push parts of it back into detection).
"""

from __future__ import annotations

import dataclasses

from repro.api.builders import build_variations
from repro.api.spec import SystemSpec
from repro.apps.httpd.vulnerable import (
    BANNER_REGION_BASE,
    BANNER_REGION_SIZE,
    BANNER_TEXT,
    STATE_REGION_BASE,
    STATE_REGION_SIZE,
)
from repro.attacks.outcomes import OutcomeKind
from repro.core.variations.uid import UIDVariation
from repro.corpus.records import (
    EXPECTED_BENIGN,
    EXPECTED_DETECTED,
    EXPECTED_EXEMPT,
)
from repro.memory.partition import VALUE_MASK, RegionScheme

#: The worker's semantic uid (``www-data`` in the standard host's passwd).
WORKER_UID = 33

#: Largest uid_t the kernel accepts (see ``validate_uid``: sign bit invalid).
MAX_VALID_UID = 0x7FFFFFFF

#: Bytes the banner dereference reads on every request.
BANNER_READ_LEN = len(BANNER_TEXT)

WORD_BYTES = 4


@dataclasses.dataclass(frozen=True)
class Expectation:
    """One record's analytic expectation."""

    expected: str  # detected | benign | guarantee-exempt
    kind: OutcomeKind  # the exact predicted outcome kind
    why: str


# ---------------------------------------------------------------------------
# Spec reconstruction
# ---------------------------------------------------------------------------


def uid_masks_for_spec(spec: SystemSpec) -> tuple[int, ...]:
    """The spec's per-variant UID XOR masks (all zero without UID diversity).

    Builds the actual variation stack, so keyed specs (which must pin their
    seeds in the corpus) yield the very masks a session built from the same
    spec will draw.
    """
    for variation in build_variations(spec):
        if isinstance(variation, UIDVariation):
            return tuple(int(m) & VALUE_MASK for m in variation.masks)
    return tuple([0] * spec.num_variants)


def address_scheme_for_spec(spec: SystemSpec) -> "RegionScheme | None":
    """The spec's region-carving partition scheme, or ``None``."""
    for variation in build_variations(spec):
        if isinstance(variation.scheme, RegionScheme):
            return variation.scheme
    return None


# ---------------------------------------------------------------------------
# UID-family expectations
# ---------------------------------------------------------------------------


def _low_mask(span_bytes: int) -> int:
    return VALUE_MASK if span_bytes >= WORD_BYTES else (1 << (8 * span_bytes)) - 1


def uid_span_expectation(
    masks: tuple[int, ...], *, span_bytes: int, value: int
) -> Expectation:
    """Expected outcome of corrupting the low *span_bytes* of the worker uid.

    *value*'s low span bytes replace the stored value's (terminator zeros
    must already be folded into *value* by the caller).
    """
    low = _low_mask(span_bytes)
    first = masks[0] & low
    if any((mask & low) != first for mask in masks):
        return Expectation(
            EXPECTED_DETECTED,
            OutcomeKind.DETECTED,
            f"masks differ within the corrupted low {span_bytes} byte(s); "
            f"decoded uids diverge at the next credential call",
        )
    # Unanimity: every variant decodes the corruption to the same uid.
    decoded = ((value ^ masks[0]) & low) | (WORKER_UID & ~low & VALUE_MASK)
    return _unanimous_expectation(
        decoded, f"all masks agree on the corrupted low {span_bytes} byte(s)"
    )


def _unanimous_expectation(decoded: int, agreement: str) -> Expectation:
    """Outcome when every variant decodes a corruption to the same *decoded*.

    The monitor sees agreement, so nothing alarms; what happens next follows
    the kernel's uid_t semantics.  Decoding to 0 keeps the worker root
    outright.  Decoding to an *invalid* uid_t (sign bit set, Section 3.2)
    makes the security-critical ``seteuid`` fail with EINVAL in every
    variant identically -- and a failed drop leaves the process root, the
    classic unchecked-setuid failure.  Any other value is an ordinary
    unprivileged uid and the corruption is absorbed.
    """
    if decoded == 0:
        return Expectation(
            EXPECTED_EXEMPT,
            OutcomeKind.UNDETECTED_COMPROMISE,
            f"{agreement}; every variant decodes uid 0 (root retained) -- "
            f"outside the guarantee",
        )
    if decoded > MAX_VALID_UID:
        return Expectation(
            EXPECTED_EXEMPT,
            OutcomeKind.UNDETECTED_COMPROMISE,
            f"{agreement}; every variant decodes invalid uid 0x{decoded:08x}, "
            f"the credential drop fails with EINVAL and the process stays "
            f"root -- outside the guarantee",
        )
    return Expectation(
        EXPECTED_EXEMPT,
        OutcomeKind.NO_EFFECT,
        f"{agreement}; every variant decodes uid {decoded} (harmless) -- "
        f"outside the guarantee but not a win",
    )


def remote_uid_overwrite_expectation(
    masks: tuple[int, ...], *, uid: int, partial_bytes: int
) -> Expectation:
    """Remote header overflow writing *partial_bytes* of *uid* (plus terminator)."""
    if partial_bytes >= WORD_BYTES:
        span, value = WORD_BYTES, uid & VALUE_MASK
    else:
        # k attacker bytes + the copied terminator zero at byte k.
        span = partial_bytes + 1
        value = uid & _low_mask(partial_bytes)
    return uid_span_expectation(masks, span_bytes=span, value=value)


def annotation_expectation(masks: tuple[int, ...], *, length: int) -> Expectation:
    """An annotation of *length* filler bytes (64-byte buffer)."""
    from repro.apps.httpd.vulnerable import ANNOTATION_BUFFER_SIZE

    if length < ANNOTATION_BUFFER_SIZE:
        return Expectation(
            EXPECTED_BENIGN,
            OutcomeKind.NO_EFFECT,
            "annotation and terminator fit the buffer; nothing is corrupted",
        )
    if length == ANNOTATION_BUFFER_SIZE:
        # Off-by-one: only the terminator lands out of bounds, zeroing the
        # low byte of worker_uid.
        return uid_span_expectation(masks, span_bytes=1, value=0)
    raise ValueError(f"annotation length {length} writes past the uid low byte")


def corruption_expectation(
    masks: tuple[int, ...], *, kind: str, payload: int, byte_count: int
) -> Expectation:
    """In-place :class:`~repro.memory.corruption.CorruptionSpec` expectation."""
    if kind == "bit-flip":
        decoded = WORKER_UID ^ (1 << payload)
        return _unanimous_expectation(
            decoded, "an identical XOR delta commutes with every mask"
        )
    if kind == "partial-bytes":
        return uid_span_expectation(masks, span_bytes=byte_count, value=payload)
    if kind == "full-word":
        return uid_span_expectation(masks, span_bytes=WORD_BYTES, value=payload)
    raise ValueError(f"unknown corruption kind {kind!r}")


# ---------------------------------------------------------------------------
# Address-family expectations
# ---------------------------------------------------------------------------


def _read_ok(scheme: RegionScheme, index: int, pointer: int) -> bool:
    """Would variant *index*'s 16-byte banner read at *pointer* succeed?"""
    pointer &= VALUE_MASK
    if scheme.partition_of(pointer) != index:
        return False
    nominal = scheme.untranslate(index, pointer)
    for base, size in (
        (BANNER_REGION_BASE, BANNER_REGION_SIZE),
        (STATE_REGION_BASE, STATE_REGION_SIZE),
    ):
        if base <= nominal and nominal + BANNER_READ_LEN <= base + size:
            return True
    return False


def pointer_expectation(
    scheme: RegionScheme, *, value: int, partial_bytes: int = WORD_BYTES
) -> Expectation:
    """Expected outcome of a (possibly partial) banner-pointer overwrite.

    For a partial overwrite the pointer keeps its high bytes per variant:
    ``post_i = (banner_i & keep) | (value & low)`` with the terminator
    zeroing one more byte (``keep`` excludes ``partial_bytes + 1`` low
    bytes).  Raises if the surviving reads land on *different* nominal
    offsets across variants -- those records are oracle-fragile and the
    generator must not emit them.
    """
    if partial_bytes >= WORD_BYTES:
        posts = [value & VALUE_MASK] * scheme.num_partitions
    else:
        low = _low_mask(partial_bytes)
        keep = ~_low_mask(partial_bytes + 1) & VALUE_MASK
        posts = [
            ((scheme.translate(i, BANNER_REGION_BASE) & keep) | (value & low))
            for i in range(scheme.num_partitions)
        ]
    ok = [_read_ok(scheme, i, post) for i, post in enumerate(posts)]
    if not all(ok):
        faulted = [i for i, good in enumerate(ok) if not good]
        return Expectation(
            EXPECTED_DETECTED,
            OutcomeKind.DETECTED,
            f"variant(s) {faulted} fault dereferencing the corrupted pointer "
            f"(outside their partition or past a region edge); any fault alarms",
        )
    nominals = {scheme.untranslate(i, post) for i, post in enumerate(posts)}
    if len(nominals) != 1:
        raise ValueError(
            "surviving reads land on different nominal offsets across "
            "variants; the oracle cannot predict response divergence"
        )
    return Expectation(
        EXPECTED_EXEMPT,
        OutcomeKind.UNDETECTED_COMPROMISE,
        f"every variant's corrupted pointer stays valid at the same nominal "
        f"offset 0x{nominals.pop():x}; unanimous reads raise no alarm and the "
        f"attacker keeps pointer control -- outside the guarantee",
    )
