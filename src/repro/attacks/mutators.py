"""Guarantee-edge payload mutators.

The corpus generator (:mod:`repro.corpus`) does not invent new attack
mechanisms -- every record is still a header overflow or an in-place
corruption -- but it deliberately *mutates* the classic payloads toward the
edge of the detection guarantee:

* **partial pointer overwrites** keep the high bytes of every variant's
  banner pointer and replace only the low ones, the case plain partitioning
  is *not* guaranteed to detect (Section 2.3 / Bruschi et al.);
* **off-by-one annotation overflows** overrun the 64-byte buffer by exactly
  the string terminator, zeroing a single byte of the adjacent UID word --
  a one-byte corruption that lands *identically* in every variant;
* **boundary-length annotations** sit exactly at the buffer edge, the
  largest payload that must stay benign.

These builders bypass the guard rails of :mod:`repro.attacks.payloads`
(``benign_request`` refuses out-of-bounds annotations) on purpose: the
corpus needs to express the malformed cases too.
"""

from __future__ import annotations

import dataclasses

from repro.apps.httpd.http import format_request
from repro.apps.httpd.vulnerable import ANNOTATION_BUFFER_SIZE, VULNERABLE_HEADER
from repro.attacks.memory_attacks import AddressInjectionAttack
from repro.attacks.payloads import OverflowSpec


def partial_pointer_payload(value: int, *, partial_bytes: int = 1) -> bytes:
    """Overwrite only the low *partial_bytes* bytes of the banner pointer.

    The overflow must cross the three UID/GID words (zeroing them, as a real
    contiguous overwrite would) before reaching the pointer; the final word
    is trimmed to *partial_bytes*, so the pointer keeps its ``4 -
    (partial_bytes + 1)`` high bytes (the string terminator zeroes one more).
    A mutation that preserves every variant's partition-selecting high byte
    keeps the corrupted pointer *valid in every variant* -- the
    guarantee-exempt case plain partitioning cannot see.
    """
    spec = OverflowSpec(fields=(0, 0, 0, value), partial_bytes=partial_bytes)
    return format_request("/index.html", headers={VULNERABLE_HEADER: spec.header_value()})


@dataclasses.dataclass(frozen=True)
class PartialPointerAttack(AddressInjectionAttack):
    """An address injection that overwrites only the pointer's low bytes.

    ``address`` holds the injected low-byte value; ``partial_bytes`` how many
    low-order bytes of it are written.  Reuses the
    :class:`AddressInjectionAttack` driver unchanged (the driver only calls
    :meth:`payload`), so ``prepare_attack`` dispatches it like any
    other pointer attack.
    """

    partial_bytes: int = 4

    def payload(self) -> bytes:
        return partial_pointer_payload(self.address, partial_bytes=self.partial_bytes)


def annotation_overflow_payload(length: int, *, path: str = "/index.html") -> bytes:
    """An annotation of exactly *length* filler bytes, overruns included.

    Unlike :func:`~repro.attacks.payloads.benign_request` this builder
    accepts lengths at or past :data:`ANNOTATION_BUFFER_SIZE`: a
    ``length == ANNOTATION_BUFFER_SIZE`` annotation is the off-by-one case
    where only the copied terminator lands out of bounds, zeroing the low
    byte of the adjacent ``worker_uid`` word.
    """
    if length < 0:
        raise ValueError(f"annotation length must be non-negative, got {length}")
    return format_request(path, headers={VULNERABLE_HEADER: "A" * length})


#: Annotation lengths at the buffer edge: the largest benign payload (the
#: terminator lands exactly in the last buffer byte) and the off-by-one
#: overrun (the terminator corrupts one byte past the buffer).
BOUNDARY_ANNOTATION_LENGTHS: tuple[int, ...] = (
    ANNOTATION_BUFFER_SIZE - 1,
    ANNOTATION_BUFFER_SIZE,
)
