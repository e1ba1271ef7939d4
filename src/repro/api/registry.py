"""Named, parameterised factories for variations.

The declarative scenario layer refers to variations *by name*: a
:class:`~repro.api.spec.SystemSpec` carries ``("uid", {"mask": ...})`` rather
than a class object, so scenarios can live in JSON files and travel between
processes.  The registry is the resolver: it maps a stable public name (plus
the variation's historical ``Variation.name`` as an alias) to a factory that
builds a *fresh* instance per call -- sessions must never share variation
instances, which is why builders always go through :meth:`VariationRegistry.create`
instead of caching objects.

The default :data:`registry` is pre-populated with every Table 1 variation;
new diversity techniques register themselves once and immediately become
expressible in every campaign, benchmark and CLI scenario.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from typing import Any, Callable, Iterator, Mapping, Optional, Union

from repro.core.variations.address import (
    AddressPartitioning,
    ExtendedAddressPartitioning,
    KeyedAddressPartitioning,
    OrbitAddressPartitioning,
)
from repro.core.variations.base import Variation
from repro.core.variations.uid import (
    FullFlipUIDVariation,
    KeyedUIDVariation,
    OrbitUIDVariation,
    UIDVariation,
)


class VariationRegistryError(ValueError):
    """Base class for registry resolution failures."""


class UnknownVariationError(VariationRegistryError):
    """A spec named a variation the registry does not know."""

    def __init__(self, name: str, known: list[str]):
        super().__init__(
            f"unknown variation {name!r}; registered variations: {', '.join(known) or '(none)'}"
        )
        self.name = name
        self.known = known


class VariationParameterError(VariationRegistryError):
    """A spec's parameters were rejected by the variation's factory."""

    def __init__(self, name: str, params: Mapping[str, Any], reason: str):
        super().__init__(f"bad parameters for variation {name!r} ({dict(params)!r}): {reason}")
        self.name = name
        self.params = dict(params)


@dataclasses.dataclass(frozen=True)
class RegisteredVariation:
    """One registry entry: the public name, its factory and documentation."""

    name: str
    #: The factory, or its ``"module:attribute"`` path, imported on first use.
    factory: Union[Callable[..., Variation], str]
    description: str = ""
    aliases: tuple[str, ...] = ()

    @functools.cached_property
    def resolved_factory(self) -> Callable[..., Variation]:
        """The factory itself, importing it first if it was registered by path."""
        if not isinstance(self.factory, str):
            return self.factory
        module, _, attribute = self.factory.partition(":")
        return getattr(importlib.import_module(module), attribute)

    def parameters(self) -> list[str]:
        """The factory's accepted parameter names (for CLI listings)."""
        return list(self._parameter_names)

    @functools.cached_property
    def _parameter_names(self) -> tuple[str, ...]:
        # Worked out once per entry: ``inspect.signature`` is slow, and spec
        # building asks for every cell of a campaign.
        try:
            signature = inspect.signature(self.resolved_factory)
        except (TypeError, ValueError):
            return ()
        return tuple(
            parameter.name
            for parameter in signature.parameters.values()
            if parameter.kind
            in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        )


class VariationRegistry:
    """Resolves variation names (and aliases) to fresh variation instances."""

    def __init__(self) -> None:
        self._entries: dict[str, RegisteredVariation] = {}
        self._aliases: dict[str, str] = {}

    # -- registration ----------------------------------------------------------

    def register(
        self,
        name: str,
        factory: Union[Callable[..., Variation], str],
        *,
        description: str = "",
        aliases: tuple[str, ...] = (),
    ) -> RegisteredVariation:
        """Register *factory* under *name* (and optional aliases).

        *factory* may be a ``"module:attribute"`` path, so that a variation
        whose module is costly to load is imported only when it is used.

        Re-registering a name replaces the entry, so tests can shadow a
        variation in a scratch registry without mutating class state.
        """
        entry = RegisteredVariation(
            name=name, factory=factory, description=description, aliases=tuple(aliases)
        )
        self._entries[name] = entry
        for alias in entry.aliases:
            self._aliases[alias] = name
        return entry

    # -- resolution ------------------------------------------------------------

    def names(self) -> list[str]:
        """The registered public names, sorted."""
        return sorted(self._entries)

    def get(self, name: str) -> RegisteredVariation:
        """Resolve *name* (or an alias) to its entry."""
        canonical = self._aliases.get(name, name)
        try:
            return self._entries[canonical]
        except KeyError:
            raise UnknownVariationError(name, self.names()) from None

    def create(self, name: str, params: Optional[Mapping[str, Any]] = None) -> Variation:
        """Build a fresh variation instance from a name and parameters."""
        entry = self.get(name)
        kwargs = dict(params or {})
        try:
            variation = entry.resolved_factory(**kwargs)
        except (TypeError, ValueError) as exc:
            raise VariationParameterError(entry.name, kwargs, str(exc)) from exc
        if not isinstance(variation, Variation):
            raise VariationParameterError(
                entry.name, kwargs, f"factory returned {type(variation).__name__}, not a Variation"
            )
        return variation

    def describe(self) -> list[dict[str, str]]:
        """Rows for the CLI's ``variations`` listing.

        ``num_variants`` (injected by the builders from the system spec) and
        ``scheme`` (a non-scalar object, library callers only) are omitted:
        neither is settable from a JSON scenario's params.
        """
        hidden = {"num_variants", "scheme"}
        return [
            {
                "name": entry.name,
                "aliases": ", ".join(entry.aliases),
                "parameters": ", ".join(p for p in entry.parameters() if p not in hidden),
                "description": entry.description,
            }
            for _, entry in sorted(self._entries.items())
        ]

    def __contains__(self, name: str) -> bool:
        return name in self._entries or name in self._aliases

    def __iter__(self) -> Iterator[RegisteredVariation]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


#: The default registry: every Table 1 variation, under short stable names
#: with the historical ``Variation.name`` values as aliases.
registry = VariationRegistry()

registry.register(
    "uid",
    UIDVariation,
    description="UID data diversity: R_1 XORs uid_t values with a 31-bit mask (Section 3)",
    aliases=("uid-variation",),
)
registry.register(
    "uid-orbit",
    OrbitUIDVariation,
    description=(
        "N-way UID orbit: variant i XORs uid_t with a distinct 31-bit mask, "
        "generalising the 2-variant re-expression to any variant count"
    ),
    aliases=("uid-orbit-variation",),
)
registry.register(
    "uid-full-flip",
    FullFlipUIDVariation,
    description="Rejected Section 3.2 ablation: XOR 0xFFFFFFFF flips the sign bit too",
    aliases=("uid-variation-full-flip",),
)
registry.register(
    "address",
    AddressPartitioning,
    description=(
        "Disjoint scheme-carved address-space partitions (high-bit split at N=2, "
        "Cox et al. 2006; top-bits orbit beyond)"
    ),
    aliases=("address-partitioning",),
)
registry.register(
    "address-orbit",
    OrbitAddressPartitioning,
    description=(
        "N-way address orbit: variant i owns the i-th top-bits slice of the "
        "address space, generalising the 2-variant partitioning to any variant count"
    ),
    aliases=("address-orbit-partitioning",),
)
registry.register(
    "address-extended",
    ExtendedAddressPartitioning,
    description="Partitioning plus a per-variant offset (Bruschi et al. 2007), N-ary",
    aliases=("extended-address-partitioning",),
)
registry.register(
    "uid-keyed",
    KeyedUIDVariation,
    description=(
        "Keyed UID orbit: secret pairwise-distinct masks drawn from key_bits "
        "of entropy (optionally pinned by seed), rotated on session restart"
    ),
    aliases=("uid-keyed-variation",),
)
registry.register(
    "address-keyed",
    KeyedAddressPartitioning,
    description=(
        "Keyed ASLR-style partitioning: secret slice assignments and slides "
        "drawn from key_bits of entropy (optionally pinned by seed)"
    ),
    aliases=("keyed-address-partitioning",),
)
registry.register(
    "fd-orbit",
    "repro.core.variations.fdspace:FdOrbitVariation",
    description=(
        "File-descriptor orbit: variant i holds descriptors re-expressed into "
        "the i-th top-bits slice, decoded ahead of the kernel, so an injected "
        "concrete fd value diverges at first use"
    ),
    aliases=("fd-orbit-variation",),
)
registry.register(
    "instruction-tagging",
    # Instruction tagging loads the instruction-set interpreter.
    "repro.core.variations.instruction:InstructionSetTagging",
    description="Per-variant instruction tags checked before execution",
    aliases=("instruction-set-tagging",),
)
