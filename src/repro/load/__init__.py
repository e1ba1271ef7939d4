"""Open-loop load: arrivals, admission control, checkpoint/migration, latency.

The load subsystem turns the serving apps into an open-loop experiment
surface.  :mod:`repro.load.arrivals` emits seeded request schedules on the
virtual clock, independent of how fast the server drains;
:mod:`repro.load.admission` decides at the door which arrivals enter and
counts what was shed; :mod:`repro.load.latency` measures admitted requests'
sojourn tails; :mod:`repro.load.checkpoint` serializes a quiescent session
-- keyed secrets included -- so it can continue byte-identically on another
engine; and :mod:`repro.load.driver` wires all four into a deterministic
run the ``loadtest`` experiment sweeps.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.load.admission": (
            "AcceptAllPolicy",
            "BoundedQueuePolicy",
            "TokenBucketPolicy",
            "UnknownAdmissionError",
            "admission_kinds",
            "create_admission_policy",
        ),
        "repro.load.arrivals": (
            "LoadError",
            "UnknownArrivalError",
            "arrival_kinds",
            "create_arrival_process",
        ),
        "repro.load.checkpoint": (
            "SessionCheckpoint",
            "build_serving_session",
            "keyed_secrets",
            "restore",
        ),
        "repro.load.driver": ("ATTACK_KINDS", "LoadtestCell", "run_loadtest"),
        "repro.load.latency": ("LatencyHistogram",),
    },
)
