"""Declarative scenario API: specs, the variation registry, builders, campaigns.

This package separates the *policy description* from the *execution engine*
(the split Section 3 of the paper implies): a scenario is data -- a
:class:`~repro.api.spec.SystemSpec` or :class:`~repro.api.spec.FleetSpec`
that round-trips through JSON -- and the builders are the single construction
path from that data to running :class:`~repro.engine.session.NVariantSession` /
:class:`~repro.engine.scheduler.MultiSessionEngine` machinery.

Typical use::

    from repro import SystemSpec, VariationSpec, build_session, run_campaign

    spec = SystemSpec(name="2-variant-uid", variations=(VariationSpec("uid"),))
    report = run_campaign([spec])                     # attacks x specs
    result = build_session(spec, kernel, factory).run()  # one concrete system

``python -m repro run scenario.json`` drives the same API from the command
line, so new scenarios require no code at all.
"""

from repro import _lazy_exports

# ``registry`` and ``experiments`` are also the names of the modules that
# define them, so they are imported eagerly (see ``_lazy_exports``).
from repro.api.experiments import experiments
from repro.api.registry import registry

__getattr__, __dir__, _exports = _lazy_exports(
    __name__,
    {
        "repro.api.builders": ("build_engine", "build_session", "build_variations"),
        "repro.api.campaign": (
            "CampaignReport",
            "attacks_by_name",
            "prepare_attack",
            "run_attack",
            "run_campaign",
            "standard_attacks",
        ),
        "repro.api.experiments": (
            "ExperimentParameter",
            "ExperimentParameterError",
            "ExperimentRegistry",
            "ExperimentRegistryError",
            "ExperimentReport",
            "RegisteredExperiment",
            "ReportKeyValues",
            "ReportTable",
            "UnknownExperimentError",
        ),
        "repro.api.registry": (
            "RegisteredVariation",
            "UnknownVariationError",
            "VariationParameterError",
            "VariationRegistry",
            "VariationRegistryError",
        ),
        "repro.api.spec": (
            "ADDRESS_ORBIT_3_SPEC",
            "ADDRESS_PARTITIONING_SPEC",
            "ADDRESS_UID_SPEC",
            "COMBINED_ORBIT_3_SPEC",
            "ExperimentSpec",
            "FLEET_HALT_POLICIES",
            "FleetSpec",
            "SINGLE_PROCESS_SPEC",
            "STANDARD_SYSTEM_SPECS",
            "SystemSpec",
            "UID_DIVERSITY_SPEC",
            "UID_ORBIT_3_SPEC",
            "VariationSpec",
            "WorkloadSpec",
            "address_orbit_spec",
            "combined_orbit_spec",
            "keyed_address_spec",
            "keyed_uid_spec",
            "uid_orbit_spec",
        ),
    },
)
__all__ = ["experiments", "registry", *_exports]
