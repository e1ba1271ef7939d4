"""The paper's primary contribution: N-variant systems with data diversity.

This package layers the redundant-execution framework on top of the simulated
kernel:

* :mod:`repro.core.reexpression` -- reexpression functions and the inverse /
  disjointedness properties (Section 2).
* :mod:`repro.core.variations` -- the Table 1 variations (address
  partitioning, extended partitioning, instruction tagging, UID diversity).
* :mod:`repro.core.monitor`, :mod:`repro.core.wrappers`,
  :mod:`repro.core.nvariant` -- the lockstep engine, system-call wrappers
  (input replication, once-only output, unshared files) and the monitor
  (Sections 3.1, 3.4, 3.5).
* :mod:`repro.core.detection_calls` -- the Table 2 detection system calls.
* :mod:`repro.core.pipeline` -- the interpreters model of Section 2.1 as a
  small executable abstraction (Figure 2).
* :mod:`repro.core.properties` -- checkers for normal equivalence and
  detection.
"""

from repro.core.alarm import Alarm, AlarmType
from repro.core.detection_calls import (
    CC_FAMILY_RATIONALE,
    COMPARISON_TO_CALL,
    DetectionCallSpec,
    TABLE2_DETECTION_CALLS,
)
from repro.core.monitor import Monitor, MonitorStats
from repro.core.nvariant import (
    NVariantResult,
    UIDCodec,
    VariantContext,
    VariantOutcome,
    nvexec,
)
from repro.core.pipeline import (
    AppInterpreter,
    DataDiversityPipeline,
    PipelineRun,
    PipelineVariant,
    TargetInterpreter,
    faithful_app_interpreter,
    vulnerable_app_interpreter,
)
from repro.core.properties import (
    DetectionVerdict,
    EquivalenceVerdict,
    check_detection,
    check_normal_equivalence,
    check_variation_reexpression,
)
from repro.core.reexpression import (
    PropertyReport,
    ReexpressionFunction,
    check_disjointness,
    check_inverse_property,
    check_partial_overwrite_resilience,
    identity_reexpression,
    offset_reexpression,
    sample_domain,
    xor_reexpression,
)
from repro.core.variations import (
    AddressPartitioning,
    ExtendedAddressPartitioning,
    FullFlipUIDVariation,
    InstructionSetTagging,
    TABLE1_VARIATIONS,
    UID_MASK_31,
    UID_MASK_32,
    UIDVariation,
    Variation,
    VariationStack,
)
from repro.core.wrappers import SyscallWrappers, UnsharedFileRegistry, WrapperStats

__all__ = [
    "Alarm",
    "AlarmType",
    "AddressPartitioning",
    "AppInterpreter",
    "CC_FAMILY_RATIONALE",
    "COMPARISON_TO_CALL",
    "DataDiversityPipeline",
    "DetectionCallSpec",
    "DetectionVerdict",
    "EquivalenceVerdict",
    "ExtendedAddressPartitioning",
    "FullFlipUIDVariation",
    "InstructionSetTagging",
    "Monitor",
    "MonitorStats",
    "NVariantResult",
    "PipelineRun",
    "PipelineVariant",
    "PropertyReport",
    "ReexpressionFunction",
    "SyscallWrappers",
    "TABLE1_VARIATIONS",
    "TABLE2_DETECTION_CALLS",
    "TargetInterpreter",
    "UIDCodec",
    "UIDVariation",
    "UID_MASK_31",
    "UID_MASK_32",
    "UnsharedFileRegistry",
    "VariantContext",
    "VariantOutcome",
    "Variation",
    "VariationStack",
    "WrapperStats",
    "check_detection",
    "check_disjointness",
    "check_inverse_property",
    "check_normal_equivalence",
    "check_partial_overwrite_resilience",
    "check_variation_reexpression",
    "faithful_app_interpreter",
    "identity_reexpression",
    "nvexec",
    "offset_reexpression",
    "sample_domain",
    "vulnerable_app_interpreter",
    "xor_reexpression",
]
