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

from repro.load.admission import (
    AcceptAllPolicy,
    AdmissionDecision,
    AdmissionPolicy,
    AdmissionStats,
    BoundedQueuePolicy,
    POLICIES,
    TokenBucketPolicy,
    UnknownAdmissionError,
    admission_kinds,
    create_admission_policy,
)
from repro.load.arrivals import (
    ARRIVALS,
    ArrivalProcess,
    BurstyArrivals,
    ConstantArrivals,
    LoadError,
    PoissonArrivals,
    RampArrivals,
    UnknownArrivalError,
    arrival_kinds,
    create_arrival_process,
)
from repro.load.checkpoint import (
    PendingRequest,
    ServingConfig,
    SessionCheckpoint,
    build_serving_session,
    checkpoint,
    keyed_secrets,
    restore,
)
from repro.load.driver import (
    ATTACK_KINDS,
    DEFAULT_SEED,
    LoadRunResult,
    LoadtestCell,
    RequestRecord,
    run_loadtest,
)
from repro.load.latency import LatencyHistogram

__all__ = [
    "ARRIVALS",
    "ATTACK_KINDS",
    "AcceptAllPolicy",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmissionStats",
    "ArrivalProcess",
    "BoundedQueuePolicy",
    "BurstyArrivals",
    "ConstantArrivals",
    "DEFAULT_SEED",
    "LatencyHistogram",
    "LoadError",
    "LoadRunResult",
    "LoadtestCell",
    "POLICIES",
    "PendingRequest",
    "PoissonArrivals",
    "RampArrivals",
    "RequestRecord",
    "ServingConfig",
    "SessionCheckpoint",
    "TokenBucketPolicy",
    "UnknownAdmissionError",
    "UnknownArrivalError",
    "admission_kinds",
    "arrival_kinds",
    "build_serving_session",
    "checkpoint",
    "create_admission_policy",
    "create_arrival_process",
    "keyed_secrets",
    "restore",
    "run_loadtest",
]
