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

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.core.nvariant": ("nvexec",),
        "repro.core.pipeline": (
            "DataDiversityPipeline",
            "TargetInterpreter",
            "vulnerable_app_interpreter",
        ),
        "repro.core.variations.uid": ("UIDVariation",),
    },
)
