"""The attacker-model subsystem: brute-force probing of keyed fleets.

The paper's detection results are boolean -- every public scheme either
detects an attack class or it does not, because the attacker is assumed to
know the layout.  The keyed schemes (:mod:`repro.memory.partition`) withhold
the layout behind ``key_bits`` of entropy, which turns detection into a
*game*: an attacker probes candidate layouts, every wrong-but-close guess
risks an alarm, and the quantity of interest becomes the expected number of
probes before the first alarm.

This package models that game end to end:

* :mod:`~repro.security.probes` -- the probe primitive: a generated program
  that ``peek``\\ s candidate absolute addresses and surfaces each outcome
  through ``cond_chk``, so a *partial* hit (some variants read data, others
  fault) diverges at the monitor and alarms, while a unanimous miss stays
  silent.  One probe cell runs a whole planned probe sequence against a
  keyed fleet and reports probes-to-first-alarm / probes-to-success.
* :mod:`~repro.security.attacker` -- the :class:`BruteForceAttacker`
  strategies (exhaustive sweep, random probing, partial-knowledge priors),
  trial planning, and batch execution of many probe cells through the same
  campaign scheduler (virtual or process backend) every other experiment
  uses.

The `entropy` experiment (:mod:`repro.analysis.experiments.entropy`) sweeps
key entropy x N x scheme kind through these pieces and claims the resulting
probes-to-first-alarm curve.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.security.attacker": (
            "ExhaustiveSweepAttacker",
            "PartialKnowledgeAttacker",
            "RandomProbingAttacker",
            "expected_exhaustive_probes",
            "plan_trial",
            "run_probe_batch",
        ),
        "repro.security.probes": ("ProbeOutcome", "SECRET_NOMINAL_BASE", "prepare_probe_cell"),
    },
)
