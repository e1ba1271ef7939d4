"""The interpreters model of Section 2.1 as an executable abstraction.

The paper reasons about data diversity through a pipeline of interpreters:
external input flows through the application interpreter (which may contain a
vulnerability), and trusted data flows through the reexpression function
``R_i``; both meet at the *target interpreter*, which is preceded by the
inverse reexpression ``R_i^-1`` (Figure 2).  The N-variant monitor compares
what reaches the target interpreters of the different variants.

This module gives that picture a direct, small-scale realisation that is
independent of the full kernel/httpd machinery.  It is used by the
quickstart example and the Figure 2 benchmark to demonstrate the model on a
few lines of code, and by tests to validate the model-level claims (normal
equivalence on benign flows, guaranteed detection of injected values).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from repro.core.alarm import Alarm, AlarmType
from repro.core.reexpression import ReexpressionFunction


@dataclasses.dataclass
class TargetInterpreter:
    """The interpreter that ultimately consumes values of the protected type.

    For the UID variation this stands for the kernel's credential machinery.
    ``apply`` performs the privileged action; the pipeline only invokes it
    when the monitor is satisfied.
    """

    name: str
    apply: Callable[[int], object]


@dataclasses.dataclass
class AppInterpreter:
    """The application layers between external input and the target interpreter.

    ``process`` receives the external input and the variant's trusted data
    value and returns the value that will be sent on to the target
    interpreter.  A *vulnerable* application interpreter lets crafted
    external input replace the trusted value entirely -- the essence of a
    data corruption attack: the attacker's bytes, identical in every variant,
    displace the per-variant reexpressed data.
    """

    name: str
    process: Callable[[bytes, int], int]


#: The external-input prefix that fires :func:`vulnerable_app_interpreter`'s bug.
EXPLOIT_TRIGGER = b"EXPLOIT:"


def vulnerable_app_interpreter() -> AppInterpreter:
    """An application layer with an injection vulnerability.

    If the external input starts with :data:`EXPLOIT_TRIGGER`, the remainder
    is parsed as an integer and *replaces* the trusted value -- the same
    concrete value in every variant, because external input is replicated.
    """

    def process(external: bytes, trusted: int) -> int:
        if external.startswith(EXPLOIT_TRIGGER):
            try:
                return int(external[len(EXPLOIT_TRIGGER):].strip() or b"0", 0)
            except ValueError:
                return trusted
        return trusted

    return AppInterpreter(name="vulnerable-app", process=process)


@dataclasses.dataclass
class PipelineVariant:
    """One variant of the data-diversity pipeline."""

    index: int
    reexpression: ReexpressionFunction
    app: AppInterpreter
    target: TargetInterpreter

    def run(self, external_input: bytes, trusted_value: int) -> tuple[int, int]:
        """Process one request; returns ``(concrete value, decoded value)``.

        The trusted value is reexpressed with ``R_i`` (this is the data the
        program/configuration carries in this variant), flows through the
        application interpreter together with the replicated external input,
        and is decoded with ``R_i^-1`` immediately before the target
        interpreter.
        """
        concrete = self.app.process(external_input, self.reexpression.forward(trusted_value))
        decoded = self.reexpression.inverse(concrete)
        return concrete, decoded


@dataclasses.dataclass
class PipelineRun:
    """Result of pushing one input through every variant of the pipeline."""

    external_input: bytes
    concrete_values: tuple[int, ...]
    decoded_values: tuple[int, ...]
    alarm: Optional[Alarm]
    target_result: object = None

    @property
    def attack_detected(self) -> bool:
        """True when the monitor refused to forward the value."""
        return self.alarm is not None


class DataDiversityPipeline:
    """An N-variant composition of app interpreter, ``R_i^-1`` and target.

    The pipeline-level monitor implements exactly the detection rule of
    Section 2.3: decode each variant's value with its inverse reexpression
    and raise an alarm unless all decoded values agree.  Only when they agree
    is the (single) semantic value forwarded to the target interpreter.
    """

    def __init__(
        self,
        reexpressions: Sequence[ReexpressionFunction],
        app: AppInterpreter,
        target: TargetInterpreter,
    ):
        if len(reexpressions) < 2:
            raise ValueError("a redundant pipeline needs at least two variants")
        self.variants = [
            PipelineVariant(index=i, reexpression=function, app=app, target=target)
            for i, function in enumerate(reexpressions)
        ]
        self.target = target
        self.alarms: list[Alarm] = []

    def process(self, external_input: bytes, trusted_value: int) -> PipelineRun:
        """Push one external input and one trusted value through all variants."""
        concrete = []
        decoded = []
        for variant in self.variants:
            concrete_value, decoded_value = variant.run(external_input, trusted_value)
            concrete.append(concrete_value)
            decoded.append(decoded_value)

        alarm: Optional[Alarm] = None
        target_result: object = None
        if len(set(decoded)) > 1:
            alarm = Alarm(
                alarm_type=AlarmType.UID_DIVERGENCE,
                description=(
                    "inverse reexpression produced divergent values at the "
                    f"target interpreter {self.target.name}"
                ),
                variant_values=tuple(decoded),
            )
            self.alarms.append(alarm)
        else:
            target_result = self.target.apply(decoded[0])

        return PipelineRun(
            external_input=external_input,
            concrete_values=tuple(concrete),
            decoded_values=tuple(decoded),
            alarm=alarm,
            target_result=target_result,
        )
