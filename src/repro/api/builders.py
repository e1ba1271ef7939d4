"""The construction path from declarative specs to runnable systems.

These builders are the *only* supported way the repository's consumers
(attacks, experiments, benchmarks, apps, examples, CLI) construct N-variant
machinery: :func:`build_session` for one lockstep session (``.run()`` drives
it alone to completion) and :func:`build_engine` for a fleet.  Centralising
construction here means every layer speaks :class:`~repro.api.spec.SystemSpec`
/ :class:`~repro.api.spec.FleetSpec`, and a new variation registered in the
:mod:`~repro.api.registry` becomes usable everywhere without touching any
call site.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.api.registry import registry
from repro.api.spec import FleetSpec, SystemSpec
from repro.core.nvariant import Program, VariantContext
from repro.core.variations.base import Variation
from repro.engine.policy import HaltPolicy
from repro.engine.scheduler import MultiSessionEngine
from repro.engine.session import NVariantSession
from repro.kernel.kernel import SimulatedKernel

ProgramFactory = Callable[[VariantContext], Program]


def build_variations(spec: SystemSpec) -> list[Variation]:
    """Instantiate the spec's variation stack, fresh instances every call.

    Freshness matters: two sessions built from the same spec must never share
    variation objects (unshared-file setup and per-variant state are
    per-session), which is exactly why specs carry names instead of instances.

    The spec's ``num_variants`` is forwarded to every factory that accepts a
    ``num_variants`` parameter (unless the spec's params pin it explicitly),
    so N-way variations like the UID orbit follow the system's variant count
    without the spec having to repeat it per variation.
    """
    variations = []
    for v in spec.variations:
        params = v.params_dict()
        entry = registry.get(v.name)
        if "num_variants" not in params and "num_variants" in entry.parameters():
            params["num_variants"] = spec.num_variants
        variations.append(registry.create(v.name, params))
    return variations


def build_session(
    spec: SystemSpec,
    kernel: SimulatedKernel,
    program_factory: ProgramFactory,
    *,
    name: Optional[str] = None,
) -> NVariantSession:
    """Build one resumable lockstep session from a spec.

    The spec is stamped onto the session (``session.spec``) so downstream
    consumers that must rebuild an equivalent session -- checkpoint/migration
    in :mod:`repro.load.checkpoint` -- can serialize the construction recipe
    instead of live objects.
    """
    session = NVariantSession(
        kernel,
        program_factory,
        build_variations(spec),
        num_variants=spec.num_variants,
        halt_on_alarm=spec.halt_on_alarm,
        max_rounds=spec.max_rounds,
        name=name if name is not None else spec.name,
        interposition=spec.interposition,
    )
    session.spec = spec
    return session


def build_engine(
    spec: FleetSpec, sessions: Iterable[NVariantSession] = ()
) -> MultiSessionEngine:
    """Build the cooperative multi-session engine a fleet spec describes.

    *sessions* are typically produced by :func:`build_session` once per shard
    (see :func:`repro.apps.clients.webbench.drive_engine` for the standard
    httpd fleet); the engine only needs the fleet-level policy from the spec.
    """
    return MultiSessionEngine(
        sessions,
        halt_policy=HaltPolicy(spec.halt_policy),
        name=spec.name,
    )
