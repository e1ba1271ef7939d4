"""A campaign's settings: the execution backends and the halt policies.

Kept apart from the scheduler, so that the scenario layer can declare and
check these settings (the CLI's flags, the experiments' parameters) without
importing the engine.  :mod:`repro.engine.campaign` re-exports both names.
"""

import enum

#: The execution backends :func:`~repro.engine.campaign.run_jobs` accepts.
CAMPAIGN_BACKENDS = ("virtual", "process")


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
