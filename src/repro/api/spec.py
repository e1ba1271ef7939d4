"""Frozen, JSON-round-trippable scenario specifications.

The paper's argument is a cross product -- attacks x variation configurations
x fleet shapes -- and these dataclasses are the repository's single vocabulary
for one point of that product:

* :class:`VariationSpec` -- one variation by registry name plus parameters.
* :class:`SystemSpec` -- one N-variant system: N, the variation stack, the
  transformed-build flag and the monitor's halt policy.
* :class:`WorkloadSpec` -- the WebBench-style workload shape.
* :class:`FleetSpec` -- M concurrent sessions of one system under a workload,
  with the engine-level halt policy.
* :class:`ExperimentSpec` -- one named experiment from the experiment
  registry plus its typed parameters (see :mod:`repro.api.experiments`).

Every spec is frozen (hashable, safe as a dict key or default argument) and
round-trips through ``to_dict``/``from_dict`` and ``to_json``/``from_json``,
so a scenario is *data*: the CLI (``python -m repro run scenario.json``), the
campaign runner and the benchmarks all consume the same representation.
``from_dict`` rejects unknown keys, which is what makes a typo in a scenario
file an error instead of a silently ignored setting.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping, Union

from repro.engine.policy import HaltPolicy

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _canonical_params(params: Any, *, what: str = "variation") -> tuple[tuple[str, Any], ...]:
    """Normalise a parameter mapping into a sorted, hashable tuple of pairs."""
    if params is None:
        return ()
    if not isinstance(params, tuple):  # a tuple is the canonical form itself
        _require_mapping(params, f"{what} params")
    items = dict(params).items()
    canonical = []
    for key, value in sorted(items):
        if not isinstance(key, str):
            raise TypeError(f"{what} parameter names must be strings, got {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"{what} parameter {key!r} must be a JSON scalar, got {type(value).__name__}"
            )
        canonical.append((key, value))
    return tuple(canonical)


def _require_types(spec: Any, kind: type, keys: tuple[str, ...]) -> None:
    """Raise ``TypeError`` naming the first of *keys* whose value is no *kind*.

    A ``bool`` is no ``int`` here: a scenario file's ``true`` is not a count.
    """
    for key in keys:
        value = getattr(spec, key)
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise TypeError(f"{key} must be {kind.__name__}, got {type(value).__name__} {value!r}")


def _require_mapping(value: Any, key: str) -> None:
    """Raise ``TypeError`` naming *key* and the type when *value* is no JSON object."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{key} must be an object, got {type(value).__name__} {value!r}")


def _require_known_keys(data: Mapping[str, Any], known: frozenset[str], what: str) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {what} keys: {', '.join(unknown)}; expected a subset of "
            f"{', '.join(sorted(known))}"
        )


@dataclasses.dataclass(frozen=True)
class VariationSpec:
    """One variation, named for the registry, with its factory parameters."""

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        # Accept a mapping (the natural call-site spelling) and canonicalize
        # to a sorted tuple of pairs so the spec stays frozen and hashable.
        object.__setattr__(self, "params", _canonical_params(self.params))

    @classmethod
    def of(cls, name: str, **params: Any) -> "VariationSpec":
        """Keyword-argument construction sugar: ``VariationSpec.of("uid", mask=...)``."""
        return cls(name=name, params=params)  # type: ignore[arg-type]

    @classmethod
    def from_value(cls, value: Union[str, Mapping[str, Any], "VariationSpec"]) -> "VariationSpec":
        """Coerce a JSON-level value (bare name or dict) into a spec."""
        if isinstance(value, VariationSpec):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            _require_known_keys(value, frozenset({"name", "params"}), "variation spec")
            if "name" not in value:
                raise ValueError(f"variation spec needs a 'name': {dict(value)!r}")
            return cls(name=value["name"], params=value.get("params") or ())
        raise TypeError(
            f"variation must be a name or an object, got {type(value).__name__} {value!r}"
        )

    def params_dict(self) -> dict[str, Any]:
        """The parameters as a plain dict (what the factory receives)."""
        return dict(self.params)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (bare params omitted when empty)."""
        data: dict[str, Any] = {"name": self.name}
        if self.params:
            data["params"] = self.params_dict()
        return data


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment, by name, with its run parameters.

    The mirror of :class:`VariationSpec` one layer up: where a variation spec
    names an entry in the variation registry, an experiment spec names an
    entry in :data:`repro.api.experiments.experiments`.  Parameters are JSON
    scalars only and are canonicalized to a sorted tuple of pairs, so specs
    are frozen, hashable and order-insensitive.  Which parameter names (and
    types) are legal for a given experiment is enforced by the registry at
    run time, not here -- the spec is pure data.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _canonical_params(self.params, what="experiment"))

    @classmethod
    def of(cls, name: str, **params: Any) -> "ExperimentSpec":
        """Keyword construction sugar: ``ExperimentSpec.of("table3", requests=20)``."""
        return cls(name=name, params=params)  # type: ignore[arg-type]

    def params_dict(self) -> dict[str, Any]:
        """The parameters as a plain dict (what the experiment runner receives)."""
        return dict(self.params)

    # -- serialisation ---------------------------------------------------------

    _KEYS = frozenset({"name", "params"})

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (bare params omitted when empty)."""
        data: dict[str, Any] = {"name": self.name}
        if self.params:
            data["params"] = self.params_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        _require_known_keys(data, cls._KEYS, "experiment spec")
        if "name" not in data:
            raise ValueError(f"experiment spec needs a 'name': {dict(data)!r}")
        return cls(name=data["name"], params=data.get("params") or ())

    def to_json(self) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from JSON text."""
        return cls.from_dict(json.loads(text))


@dataclasses.dataclass(frozen=True)
class SystemSpec:
    """One N-variant system, declaratively.

    ``num_variants=1`` with no variations describes the undefended
    single-process deployment the detection matrix compares against;
    :attr:`redundant` is derived, never stored.  ``halt_on_alarm`` is the
    monitor policy (the paper halts the system at the first divergence), and
    ``transformed`` says whether the program runs the Section 3.3
    source-transformed build -- required whenever the stack contains the UID
    variation, since the untransformed build diverges on benign traffic.
    """

    name: str = "nvariant"
    num_variants: int = 2
    variations: tuple[VariationSpec, ...] = ()
    transformed: bool = True
    halt_on_alarm: bool = True
    max_rounds: int = 2_000_000
    interposition: str = "classic"

    def __post_init__(self) -> None:
        # A scenario file's "two" or "yes" must fail here, naming the key,
        # not later as an unrelated comparison error.
        _require_types(self, int, ("num_variants", "max_rounds"))
        _require_types(self, bool, ("transformed", "halt_on_alarm"))
        if self.num_variants < 1:
            raise ValueError(f"num_variants must be >= 1, got {self.num_variants}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not isinstance(self.interposition, str) or not self.interposition:
            raise ValueError(
                f"interposition must be a non-empty table name, got {self.interposition!r}"
            )
        object.__setattr__(
            self,
            "variations",
            tuple(VariationSpec.from_value(value) for value in self.variations),
        )

    @property
    def redundant(self) -> bool:
        """True for an actual N-variant system (N >= 2)."""
        return self.num_variants >= 2

    def with_name(self, name: str) -> "SystemSpec":
        """The same system under a different configuration name."""
        return dataclasses.replace(self, name=name)

    # -- serialisation ---------------------------------------------------------

    _KEYS = frozenset(
        {
            "name",
            "num_variants",
            "variations",
            "transformed",
            "halt_on_alarm",
            "max_rounds",
            "interposition",
        }
    )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation.

        The interposition table is emitted only when it differs from the
        default ``"classic"``, so existing scenario files, corpus records
        and benchmark payloads keep their exact historical shape.
        """
        data = {
            "name": self.name,
            "num_variants": self.num_variants,
            "variations": [v.to_dict() for v in self.variations],
            "transformed": self.transformed,
            "halt_on_alarm": self.halt_on_alarm,
            "max_rounds": self.max_rounds,
        }
        if self.interposition != "classic":
            data["interposition"] = self.interposition
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        _require_mapping(data, "system spec")
        _require_known_keys(data, cls._KEYS, "system spec")
        kwargs = dict(data)
        if "variations" in kwargs:
            kwargs["variations"] = tuple(
                VariationSpec.from_value(value) for value in kwargs["variations"]
            )
        return cls(**kwargs)

    def to_json(self) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        """Parse a spec from JSON text."""
        return cls.from_dict(json.loads(text))


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """The WebBench-style workload shape driven at a system or fleet."""

    total_requests: int = 50
    requests_per_connection: int = 1
    client_engines: int = 1
    client_machines: int = 1

    def __post_init__(self) -> None:
        counts = ("total_requests", "requests_per_connection", "client_engines", "client_machines")
        _require_types(self, int, counts)
        if self.total_requests < 1:
            raise ValueError(f"total_requests must be >= 1, got {self.total_requests}")
        if self.requests_per_connection < 1:
            raise ValueError(
                f"requests_per_connection must be >= 1, got {self.requests_per_connection}"
            )

    _KEYS = frozenset(
        {"total_requests", "requests_per_connection", "client_engines", "client_machines"}
    )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        _require_known_keys(data, cls._KEYS, "workload spec")
        return cls(**data)


#: Engine halt policies expressible in a fleet spec.
FLEET_HALT_POLICIES = tuple(policy.value for policy in HaltPolicy)


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """M concurrent sessions of one system, with workload and halt policy."""

    system: SystemSpec = SystemSpec()
    num_sessions: int = 1
    halt_policy: str = "per-session"
    workload: WorkloadSpec = WorkloadSpec()
    multiplex: int = 1
    name: str = "engine"

    def __post_init__(self) -> None:
        if isinstance(self.system, Mapping):
            object.__setattr__(self, "system", SystemSpec.from_dict(self.system))
        if isinstance(self.workload, Mapping):
            object.__setattr__(self, "workload", WorkloadSpec.from_dict(self.workload))
        _require_types(self, SystemSpec, ("system",))
        _require_types(self, WorkloadSpec, ("workload",))
        _require_types(self, int, ("num_sessions", "multiplex"))
        _require_types(self, str, ("halt_policy", "name"))
        if self.num_sessions < 1:
            raise ValueError(f"num_sessions must be >= 1, got {self.num_sessions}")
        if self.multiplex < 1:
            raise ValueError(f"multiplex must be >= 1, got {self.multiplex}")
        if self.halt_policy not in FLEET_HALT_POLICIES:
            raise ValueError(
                f"halt_policy must be one of {FLEET_HALT_POLICIES}, got {self.halt_policy!r}"
            )

    _KEYS = frozenset(
        {"system", "num_sessions", "halt_policy", "workload", "multiplex", "name"}
    )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "name": self.name,
            "system": self.system.to_dict(),
            "num_sessions": self.num_sessions,
            "halt_policy": self.halt_policy,
            "workload": self.workload.to_dict(),
            "multiplex": self.multiplex,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetSpec":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        _require_known_keys(data, cls._KEYS, "fleet spec")
        return cls(**data)

    def to_json(self) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        """Parse a spec from JSON text."""
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# The standard configurations of the paper's narrative
# ---------------------------------------------------------------------------

#: Configuration 1: the undefended single-process server.
SINGLE_PROCESS_SPEC = SystemSpec(name="single-process", num_variants=1, transformed=False)

#: The address-partitioning baseline (the original N-variant systems work).
ADDRESS_PARTITIONING_SPEC = SystemSpec(
    name="2-variant-address", variations=(VariationSpec("address"),), transformed=False
)

#: The paper's UID data-diversity system.
UID_DIVERSITY_SPEC = SystemSpec(
    name="2-variant-uid", variations=(VariationSpec("uid"),), transformed=True
)

#: UID diversity layered on the partitioned baseline (Table 3's config 4).
ADDRESS_UID_SPEC = SystemSpec(
    name="2-variant-address+uid",
    variations=(VariationSpec("address"), VariationSpec("uid")),
    transformed=True,
)


def uid_orbit_spec(num_variants: int) -> SystemSpec:
    """The N-variant UID-orbit configuration (variant count as a sweep axis)."""
    return SystemSpec(
        name=f"{num_variants}-variant-uid-orbit",
        num_variants=num_variants,
        variations=(VariationSpec("uid-orbit"),),
        transformed=True,
    )


def address_orbit_spec(num_variants: int) -> SystemSpec:
    """The N-variant address-orbit configuration (the sweep's address axis)."""
    return SystemSpec(
        name=f"{num_variants}-variant-address-orbit",
        num_variants=num_variants,
        variations=(VariationSpec("address-orbit"),),
        transformed=False,
    )


def combined_orbit_spec(num_variants: int) -> SystemSpec:
    """Both orbit families layered at N variants (address slices + UID masks)."""
    return SystemSpec(
        name=f"{num_variants}-variant-address+uid-orbit",
        num_variants=num_variants,
        variations=(VariationSpec("address-orbit"), VariationSpec("uid-orbit")),
        transformed=True,
    )


#: The N-way sweep entry: three variants, each with its own UID mask.
UID_ORBIT_3_SPEC = uid_orbit_spec(3)

#: The address-side orbit: three variants in disjoint top-bits partitions.
ADDRESS_ORBIT_3_SPEC = address_orbit_spec(3)

#: Both orbit families layered: three variants, each with its own address
#: partition AND its own UID mask -- the N>=3 analogue of Table 3's config 4.
COMBINED_ORBIT_3_SPEC = combined_orbit_spec(3)

#: The four configurations the detection matrix compares, in narrative order.
STANDARD_SYSTEM_SPECS: tuple[SystemSpec, ...] = (
    SINGLE_PROCESS_SPEC,
    ADDRESS_PARTITIONING_SPEC,
    UID_DIVERSITY_SPEC,
    ADDRESS_UID_SPEC,
)


def keyed_address_spec(
    num_variants: int,
    *,
    key_bits: int = 8,
    seed: "int | None" = None,
    slide: bool = True,
) -> SystemSpec:
    """A keyed-ASLR fleet: secret slice layout drawn from *key_bits* of entropy.

    Passing *seed* pins the key (reproducible experiments); leaving it ``None``
    draws a fresh secret per build, which is the deployment semantics.
    ``slide=False`` drops the secret intra-slice slides, leaving the pure
    slice-assignment game the entropy experiment's analytic model covers.
    """
    params: dict = {"key_bits": key_bits, "slide": slide}
    if seed is not None:
        params["seed"] = seed
    kind = "keyed-address" if slide else "keyed-orbit"
    return SystemSpec(
        name=f"{num_variants}-variant-{kind}-k{key_bits}",
        num_variants=num_variants,
        variations=(VariationSpec("address-keyed", params),),
        transformed=False,
    )


def keyed_uid_spec(
    num_variants: int, *, key_bits: int = 16, seed: "int | None" = None
) -> SystemSpec:
    """A keyed-UID fleet: secret pairwise-distinct masks from *key_bits* bits."""
    params: dict = {"key_bits": key_bits}
    if seed is not None:
        params["seed"] = seed
    return SystemSpec(
        name=f"{num_variants}-variant-keyed-uid-k{key_bits}",
        num_variants=num_variants,
        variations=(VariationSpec("uid-keyed", params),),
        transformed=True,
    )
