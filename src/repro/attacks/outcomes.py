"""The attack cell every attack family shares: its outcome, verdict and dispatch.

Each family builds its cells from a :class:`~repro.api.spec.SystemSpec`
(:func:`~repro.attacks.uid_attacks.prepare_uid_attack`,
:func:`~repro.attacks.memory_attacks.prepare_address_attack`);
:func:`prepare_attack` picks the family for an attack, and :func:`decide`
judges every finished cell by one rule.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import SystemSpec
    from repro.core.nvariant import NVariantResult
    from repro.engine.session import NVariantSession


class OutcomeKind(enum.Enum):
    """How an attack attempt ended."""

    #: The attacker reached their goal and no alarm was raised.
    UNDETECTED_COMPROMISE = "undetected-compromise"
    #: The monitor raised an alarm (the attack may or may not have progressed
    #: before being stopped; with the halt policy it never reaches its goal).
    DETECTED = "detected"
    #: The attack neither reached its goal nor triggered an alarm (e.g. the
    #: corruption was absorbed harmlessly or the payload had no effect).
    NO_EFFECT = "no-effect"
    #: The attack crashed the (single-variant) service without achieving its
    #: goal -- an availability loss but not a compromise.
    CRASHED = "crashed"


@dataclasses.dataclass(frozen=True)
class AttackOutcome:
    """Result of one attack attempt against one configuration."""

    attack: str
    configuration: str
    kind: OutcomeKind
    goal_reached: bool
    detected: bool
    detail: str = ""

    @property
    def is_security_failure(self) -> bool:
        """True when the defence failed: compromise without detection."""
        return self.kind is OutcomeKind.UNDETECTED_COMPROMISE

    def describe(self) -> str:
        """One-line rendering for reports."""
        return (
            f"{self.attack:<32} vs {self.configuration:<28} -> {self.kind.value}"
            + (f" ({self.detail})" if self.detail else "")
        )


@dataclasses.dataclass
class PreparedAttack:
    """One attack-x-configuration cell, ready to schedule.

    ``start`` lazily builds the cell's private simulated host and returns the
    resumable lockstep session; ``finish`` inspects the terminal session (and
    whatever ``start`` captured, e.g. the kernel's connection log) and
    produces the cell's :class:`AttackOutcome`.  Driving the session serially
    or interleaved under the campaign scheduler yields identical outcomes --
    the cell owns every bit of state it touches.
    """

    attack: str
    configuration: str
    start: Callable[[], "NVariantSession"]
    finish: Callable[["NVariantSession"], AttackOutcome]

    @property
    def name(self) -> str:
        """The cell's display name in campaign schedules."""
        return f"{self.attack}@{self.configuration}"

    def run(self) -> AttackOutcome:
        """Run this one cell to completion (the serial path)."""
        session = self.start()
        while not session.done:
            session.step()
        return self.finish(session)


def classify(*, goal_reached: bool, detected: bool, crashed: bool = False) -> OutcomeKind:
    """Map raw observations onto an :class:`OutcomeKind`."""
    if detected:
        return OutcomeKind.DETECTED
    if goal_reached:
        return OutcomeKind.UNDETECTED_COMPROMISE
    if crashed:
        return OutcomeKind.CRASHED
    return OutcomeKind.NO_EFFECT


def decide(
    attack: str,
    spec: "SystemSpec",
    result: "NVariantResult",
    *,
    goal_reached: bool,
    quiet: str,
) -> AttackOutcome:
    """Judge one finished cell of *attack* against the system *spec* describes.

    A one-variant session has no sibling to diverge from, so its only alarm
    (its own fault) counts as a crash; in a redundant session an alarm is a
    detection.  The detail is that alarm when it is a detection, and
    otherwise *quiet*, the family's own text for the cell.
    """
    alarm = result.first_alarm()
    detected = spec.redundant and alarm is not None
    return AttackOutcome(
        attack=attack,
        configuration=spec.name,
        kind=classify(goal_reached=goal_reached, detected=detected, crashed=alarm is not None),
        goal_reached=goal_reached,
        detected=detected,
        detail=alarm.describe() if detected else quiet,
    )


def prepare_attack(attack, spec: "SystemSpec") -> PreparedAttack:
    """Prepare one attack-x-spec cell: a lazy session plus its finalizer.

    Public as :func:`repro.api.campaign.prepare_attack`.  It is defined here
    so that grading corpus records (:func:`repro.corpus.runner.prepare_record`)
    never loads the campaign layer and its process pool.
    """
    # Imported here: both family modules import this one.
    from repro.attacks.memory_attacks import AddressInjectionAttack, prepare_address_attack
    from repro.attacks.uid_attacks import UIDAttack, prepare_uid_attack

    if isinstance(attack, UIDAttack):
        return prepare_uid_attack(attack, spec)
    if isinstance(attack, AddressInjectionAttack):
        return prepare_address_attack(attack, spec)
    raise TypeError(f"unknown attack type {type(attack).__name__}: cannot dispatch {attack!r}")
