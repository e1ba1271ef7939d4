"""Memory-corruption primitives used by the attack library.

Section 2.3 of the paper is precise about the granularity of corruption each
variation defends against:

* the UID reexpression ``u XOR 0x7FFFFFFF`` detects any corruption that
  changes one of the 31 low bits (full-word overwrites, byte-level partial
  overwrites, low-bit flips), because the same concrete value decodes to
  different UIDs in the two variants;
* it is *blind* to an overwrite of only the high (sign) bit, which the
  reexpression function leaves unflipped -- the paper argues such single-bit
  remote attacks are not realistic, and we reproduce both the blind spot and
  the argument in the ablation benchmark;
* plain address-space partitioning detects injected *complete* addresses but
  not a 3-low-byte partial overwrite; the extended variant (extra offset)
  regains probabilistic protection.

These helpers express those corruption classes as operations on a
:class:`~repro.memory.memory_model.MemoryVariable`, so
attack code and property-based tests share one vocabulary.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

from repro.memory.memory_model import MemoryVariable, WORD_MASK, WORD_SIZE


@dataclasses.dataclass(frozen=True)
class CorruptionSpec:
    """A declarative description of a memory corruption.

    ``kind`` is one of ``full-word``, ``partial-bytes``, ``bit-flip``.
    ``payload`` is the attacker-chosen word value for overwrites, or the bit
    index for flips.  ``byte_count`` applies to partial overwrites and counts
    bytes written starting from the low-order byte (little-endian layout),
    matching the paper's discussion of low-order-byte partial overwrites.
    """

    kind: str
    payload: int = 0
    byte_count: int = WORD_SIZE

    def __post_init__(self) -> None:
        if self.kind not in ("full-word", "partial-bytes", "bit-flip"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.kind == "partial-bytes" and not 1 <= self.byte_count <= WORD_SIZE:
            raise ValueError("partial overwrite must write between 1 and 4 bytes")
        if self.kind == "bit-flip" and not 0 <= self.payload < 32:
            raise ValueError("bit index must be in [0, 32)")

    def describe(self) -> str:
        """Human-readable description for reports and alarms."""
        if self.kind == "full-word":
            return f"full-word overwrite with 0x{self.payload:08x}"
        if self.kind == "partial-bytes":
            return (
                f"partial overwrite of low {self.byte_count} byte(s) "
                f"with 0x{self.payload:08x}"
            )
        return f"flip of bit {self.payload}"


def overwrite_word(variable: MemoryVariable, value: int) -> int:
    """Overwrite a word variable with an attacker-chosen complete value."""
    variable.set(value & WORD_MASK)
    return variable.get()


def overwrite_low_bytes(variable: MemoryVariable, value: int, byte_count: int) -> int:
    """Overwrite only the low *byte_count* bytes of a word variable.

    The high-order bytes keep their original (per-variant) contents; this is
    the partial-overwrite attack the extended address partitioning variation
    was designed around.
    """
    if not 1 <= byte_count <= WORD_SIZE:
        raise ValueError("byte_count must be between 1 and 4")
    original = variable.get()
    keep_mask = WORD_MASK << (8 * byte_count) & WORD_MASK
    new_value = (original & keep_mask) | (value & ((1 << (8 * byte_count)) - 1))
    variable.set(new_value)
    return new_value


def flip_bit(variable: MemoryVariable, bit: int) -> int:
    """Flip a single bit of a word variable (heat-lamp style fault attack)."""
    if not 0 <= bit < 32:
        raise ValueError("bit must be in [0, 32)")
    new_value = variable.get() ^ (1 << bit)
    variable.set(new_value)
    return new_value


def apply_corruption(variable: MemoryVariable, spec: CorruptionSpec) -> int:
    """Apply *spec* to *variable* and return the resulting word value."""
    if spec.kind == "full-word":
        return overwrite_word(variable, spec.payload)
    if spec.kind == "partial-bytes":
        return overwrite_low_bytes(variable, spec.payload, spec.byte_count)
    return flip_bit(variable, spec.payload)


def corruption_outcomes(
    original_values: Sequence[int],
    spec: CorruptionSpec,
) -> tuple[int, ...]:
    """Predict the post-corruption concrete values in an N-variant system.

    Given the per-variant original concrete values of the targeted word and a
    corruption spec, return the concrete values after the *same* attack input
    is applied to every variant.  Used by analytical detection arguments and
    property-based tests (the monitor's observation must match this model).
    """
    results = []
    for original in original_values:
        if spec.kind == "full-word":
            results.append(spec.payload & WORD_MASK)
        elif spec.kind == "partial-bytes":
            keep_mask = WORD_MASK << (8 * spec.byte_count) & WORD_MASK
            low_mask = (1 << (8 * spec.byte_count)) - 1
            results.append((original & keep_mask) | (spec.payload & low_mask))
        else:
            results.append(original ^ (1 << spec.payload))
    return tuple(results)


def detectable_by_disjoint_inverses(
    post_values: Sequence[int],
    inverses: Sequence[Callable[[int], int]],
) -> bool:
    """Decide whether the monitor detects the corruption.

    The monitor applies each variant's inverse reexpression function to the
    concrete value it observes and compares the decoded values.  Detection
    happens exactly when at least two variants decode different values --
    for any variant count, which is what lets the same predicate serve the
    paper's 2-variant systems and the N-ary orbit generalisation.
    """
    decoded = [invert(value) for value, invert in zip(post_values, inverses)]
    return len(set(decoded)) > 1
