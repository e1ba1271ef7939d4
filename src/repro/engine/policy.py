"""The engine's settings: the campaign backends and the halt policies.

Kept apart from the schedulers, so that the scenario layer can declare and
check these settings (the CLI's flags, the experiments' parameters, a fleet
spec's halt policy) without importing the engine.
:mod:`repro.engine.campaign` re-exports the campaign's two.
"""

import enum

#: The execution backends :func:`~repro.engine.campaign.run_jobs` accepts.
CAMPAIGN_BACKENDS = ("virtual", "process")


class HaltPolicy(enum.Enum):
    """What an alarm in one session means for its siblings in an engine."""

    #: Halt only the alarming session; the others keep serving (default).
    PER_SESSION = "per-session"
    #: Halt every session in the engine at the end of the first turn in
    #: which any session halted.
    HALT_ALL = "halt-all"


class CampaignHaltPolicy(enum.Enum):
    """What one job's halt (monitor alarm) means for the rest of the campaign."""

    #: Each job applies its own halt-on-divergence policy; siblings and
    #: pending jobs are unaffected (the default -- what a campaign sweeping an
    #: attack matrix wants, since halted cells are its data points).
    PER_CELL = "per-cell"
    #: The first halted session stops the whole campaign: at the end of that
    #: turn live siblings are halted where they stand, and pending jobs are
    #: never started.
    HALT_CAMPAIGN = "halt-campaign"
