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
