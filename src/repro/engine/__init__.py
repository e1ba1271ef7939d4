"""Concurrent multi-session N-variant execution engine.

The paper's ``nvexec`` framework (:func:`repro.core.nvariant.nvexec`) drives
exactly one N-variant system at a time: one set of variants, one monitor, one
lockstep loop run to completion.  That is faithful to the paper's prototype
but caps throughput at a single request pipeline in flight.  This package
generalises the lockstep loop into *sessions* that can be interleaved:

* :class:`~repro.engine.session.NVariantSession` packages one N-variant
  system's per-session state -- variant contexts, variation stack, syscall
  wrappers, and a **fresh monitor with fresh stats** -- behind a resumable
  ``step()`` that executes exactly one lockstep round.  ``nvexec`` and
  ``NVariantSession.run()`` step one session alone to completion.
* :class:`~repro.engine.scheduler.MultiSessionEngine` cooperatively schedules
  many sessions round-robin, one lockstep round each per turn, so M
  independent N-variant servers make progress concurrently on one simulated
  host fleet.

Halt policies: each session applies the paper's halt-on-divergence policy to
*itself* (``HaltPolicy.PER_SESSION``, the default -- an alarm stops the
alarming session while its siblings keep serving), or the engine can apply the
conservative fleet-wide policy (``HaltPolicy.HALT_ALL``).  The fleet-wide
rule is one end-of-turn rule, shared with the campaign scheduler's
``HALT_CAMPAIGN``: every live session gets its rounds in the turn in which
some session halts, and at the end of that turn every session still running
is halted and nothing new starts.  So a session's outcome does not depend on
whether it comes before or after the alarming session in the turn order.

On top of the interleaving engine,
:class:`~repro.engine.campaign.CampaignScheduler` runs *campaigns*: large
batches of independent jobs (one attack x configuration cell each) admitted
lazily through a bounded worker pool with batched lockstep rounds per
scheduling turn.  A job is a name plus a picklable zero-argument ``prepare``
that builds the job's cell, so one job list runs on either backend through
:func:`~repro.engine.campaign.run_jobs`: in process on the virtual-time
scheduler, or on the pre-forked OS workers of :mod:`repro.engine.procpool`.
The engine, the scheduler and the worker pool all return one
:class:`~repro.engine.scheduler.CampaignExecutionResult` with one
:class:`~repro.engine.scheduler.ScheduledJobResult` per session or job, in
submission order.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.engine.campaign": ("CampaignJob", "CampaignScheduler", "run_jobs"),
        "repro.engine.policy": ("CampaignHaltPolicy", "HaltPolicy"),
        "repro.engine.scheduler": ("CampaignExecutionResult", "MultiSessionEngine", "run_sessions"),
        "repro.engine.session": ("NVariantSession", "RoundLimitError", "SessionState"),
    },
)
