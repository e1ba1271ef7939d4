"""Base class for N-variant variations.

A *variation* is one diversity technique deployed across the variants: it
defines the reexpression function each variant uses for its target data type
(Table 1 of the paper) and the hooks the framework needs to keep the variants
normally equivalent:

* which region scheme carves each variant's address space (the
  :attr:`~Variation.scheme` of an address variation),
* how to rewrite system-call arguments and results so that the kernel -- the
  *target interpreter* for UID data -- always operates on decoded values while
  each variant's user space only ever holds its own representation,
* how each variant's view of trusted external files is produced (unshared
  files), and
* how the monitor canonicalizes a variant's system call before comparing it
  with its siblings (the *canonicalization function* of the paper's model).

Variations are composable: an N-variant system may run address partitioning
and the UID variation simultaneously (Configuration 4 of Table 3 layers the
UID variation on the 2-variant baseline), as long as each hook composes.

Each system-call hook is bounded by a declared *footprint*: the calls it may
rewrite.  The base hooks are the identity, so the base footprints are empty,
and a class body that defines a hook must assign that hook's footprint in
the same body -- class creation refuses it otherwise.  The footprint a
session trusts is therefore always the one written next to the hook.  A
variation may also declare the variant indices at which all of its hooks
are the identity (:meth:`Variation.identity_variants`: variant 0 of every
public UID scheme), and a round plan then runs none of its hooks for those
variants.  The safe default is the empty set: the base declares it, and a
class body that defines a hook without restating the declaration gets it
back, so an override is called at every index.  A
variation whose re-expressions come from a keyed scheme changes key through
one method, :meth:`Variation.rekey`, which session restart and checkpoint
restore both call.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence

from repro.core.reexpression import ReexpressionFunction, identity_reexpression
from repro.kernel.filesystem import FileSystem
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult
from repro.memory.address_space import AddressSpace
from repro.memory.partition import KeyedScheme, PartitionScheme


class Variation:
    """One diversity technique applied across all variants of a system."""

    #: Human-readable variation name (used in Table 1 reproduction).
    name: str = "identity"

    #: The data type whose representation is diversified.
    target_type: str = "none"

    #: Number of variants this variation is defined for.
    num_variants: int = 2

    #: Literature reference shown in the Table 1 reproduction.
    reference: str = ""

    #: The system calls :meth:`canonicalize_request` may rewrite.  A lockstep
    #: session's round plan for a name outside every variation's footprint
    #: compares the raw requests, and each plan's hook chains leave out the
    #: variations whose footprint does not name the call (an empty footprint
    #: is never called).  The base hooks are the identity, so every footprint
    #: defaults to empty; a class body that defines a hook must assign that
    #: hook's footprint too (:meth:`__init_subclass__`), so an inherited
    #: declaration never vouches for an override.  Hooks rewrite arguments
    #: and results only, never the call name, so a chain chosen by name stays
    #: valid for the whole walk.
    canonical_syscalls: frozenset[Syscall] = frozenset()

    #: The system calls :meth:`transform_request` may rewrite (same contract
    #: as :attr:`canonical_syscalls`, for the outgoing-request hook).
    transform_syscalls: frozenset[Syscall] = frozenset()

    #: The system calls whose results :meth:`transform_result` may rewrite
    #: (for the incoming-result hook).  Every other call's plan has an empty
    #: result chain, so its results reach the variants as the kernel made them.
    result_syscalls: frozenset[Syscall] = frozenset()

    #: The system calls whose :meth:`transform_request` equals their
    #: :meth:`canonicalize_request`, so a lockstep round may send the canonical
    #: requests to the kernel (:meth:`VariationStack.shares_rewrite`).  A class
    #: body that defines either request hook must assign it too.
    shared_rewrite_syscalls: frozenset[Syscall] = frozenset()

    #: The partition scheme the re-expressions derive from, if any.  Only a
    #: :class:`~repro.memory.partition.KeyedScheme` makes the variation keyed
    #: (:meth:`rekey`), and an ``"address"`` variation's scheme carves the
    #: variants' address spaces (:meth:`VariationStack.make_address_space`).
    scheme: Optional[PartitionScheme] = None

    def __init_subclass__(cls, **kwargs) -> None:
        """Refuse a class body that defines a hook but not what bounds it.

        A body that defines a hook without restating
        :meth:`identity_variants` gets the base's empty set back, so an
        override is called at every variant index.
        """
        super().__init_subclass__(**kwargs)
        body = vars(cls)
        for hook, attribute in _DECLARATIONS:
            if hook in body and attribute not in body:
                raise TypeError(
                    f"{cls.__name__} defines {hook} but does not assign "
                    f"{attribute} in the same class body"
                )
        if "identity_variants" not in body and any(hook in body for hook, _ in _HOOK_FOOTPRINTS):
            cls.identity_variants = Variation.identity_variants

    # -- reexpression functions ------------------------------------------------

    def reexpression(self, index: int) -> ReexpressionFunction:
        """The reexpression function ``R_index`` for variant *index*."""
        self._check_index(index)
        return identity_reexpression(self.target_type)

    def reexpressions(self) -> list[ReexpressionFunction]:
        """All variants' reexpression functions, in variant order."""
        return [self.reexpression(i) for i in range(self.num_variants)]

    # -- per-variant construction hooks -------------------------------------------

    def setup_unshared_files(self, fs: FileSystem) -> dict[str, list[str]]:
        """Create per-variant copies of trusted external files.

        Returns a mapping ``original path -> [variant-0 path, variant-1 path,
        ...]`` which the wrapper layer registers as unshared (Section 3.4).
        The default variation needs none.
        """
        return {}

    # -- system-call hooks (target-interpreter boundary) ----------------------------

    def transform_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Rewrite an outgoing call so the kernel sees decoded values.

        This is where the inverse reexpression function ``R_index^-1`` is
        installed "in front of the target interpreter" (Figure 2).  The
        default is the identity.
        """
        self._check_index(index)
        return request

    def transform_result(
        self, index: int, request: SyscallRequest, result: SyscallResult
    ) -> SyscallResult:
        """Rewrite a call result so the variant sees its own representation.

        Trusted values produced by the kernel (e.g. ``getuid``'s return) are
        reexpressed with ``R_index`` before being handed to variant *index*.
        """
        self._check_index(index)
        return result

    def canonicalize_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Map a variant's call onto the canonical form the monitor compares.

        This implements the paper's canonicalization function: after applying
        it, normally-equivalent variants produce identical requests, and any
        remaining difference is a detected divergence.
        """
        self._check_index(index)
        return request

    def identity_variants(self) -> frozenset[int]:
        """The variant indices at which every system-call hook is the identity.

        A lockstep round plan runs no hook of this variation for these
        variants (:class:`~repro.engine.session.RoundPlan`).  The default is
        the empty set, which is always safe: every hook is then called at
        every index.  A keyed variation reads it again after :meth:`rekey`.
        """
        return frozenset()

    # -- keys ----------------------------------------------------------------------

    def rekey(self, secret: Optional[Sequence[int]] = None) -> bool:
        """Rotate a keyed scheme, or install *secret*; return whether it is keyed.

        Session restart rotates (:meth:`NVariantSession.restart
        <repro.engine.session.NVariantSession.restart>`) and checkpoint
        restore installs the recorded secret (:mod:`repro.load.checkpoint`).
        A variation that derives state from its scheme refreshes it here, so
        no hook keeps re-expressing under the old key.
        """
        scheme = self.scheme
        if not isinstance(scheme, KeyedScheme):
            if secret is not None:
                raise ValueError(f"variation {self.name} is not keyed; it takes no secret")
            return False
        if secret is None:
            scheme.rotate()
        else:
            scheme.install_secret(secret)
        return True

    # -- reporting ---------------------------------------------------------------

    def table1_row(self) -> dict[str, str]:
        """The row this variation contributes to the Table 1 reproduction."""
        functions = self.reexpressions()
        return {
            "variation": self.name,
            "target_type": self.target_type,
            "reexpression": "; ".join(
                f"R{i}: {f.formula or f.name}" for i, f in enumerate(functions)
            ),
            "inverse": "; ".join(
                f"R{i}^-1: {f.inverse_formula or f.name}" for i, f in enumerate(functions)
            ),
            "reference": self.reference,
        }

    # -- internals -----------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_variants:
            raise self._index_error(index)

    def _index_error(self, index: int) -> ValueError:
        """The error a hook raises for an out-of-range variant *index*."""
        return ValueError(
            f"variant index {index} out of range for {self.name} "
            f"({self.num_variants} variants)"
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} target={self.target_type!r}>"


class StackShape:
    """What a stack's declarations fix, shared by every stack declared alike.

    A stack's *declarations* are, per variation in stack order, its three
    hook footprints and its :attr:`~Variation.shared_rewrite_syscalls`.  They
    fix the footprint unions and, for each hook and call name, the stack
    positions of the variations whose footprint names the call -- everything
    about a chain except the variation objects it binds.  A shape holds no
    variation and no key, so every stack with equal declarations shares one
    (:func:`stack_shape`), whatever its secrets.
    """

    def __init__(self, declarations: tuple[tuple[frozenset[Syscall], ...], ...]):
        self.declarations = declarations
        #: Per hook, the union of its footprints over the stack.
        self.unions = {
            hook: frozenset().union(*(declared[column] for declared in declarations))
            for column, (hook, _) in enumerate(_HOOK_FOOTPRINTS)
        }
        self._shared = frozenset().union(*(declared[3] for declared in declarations))

    def positions(self, hook: str, name: Syscall) -> tuple[int, ...]:
        """The stack positions, in stack order, whose *hook* footprint names *name*."""
        if name not in self.unions[hook]:
            return ()
        column = _HOOK_COLUMNS[hook]
        return tuple(
            position
            for position, declared in enumerate(self.declarations)
            if name in declared[column]
        )

    def shares_rewrite(self, name: Syscall) -> bool:
        """True when the canonical form of a *name* request is also its outgoing form.

        Both request chains of *name* must walk the same variations, each
        declaring that it rewrites *name* alike
        (:attr:`Variation.shared_rewrite_syscalls`).
        """
        if name not in self._shared:
            return False
        canonical = self.positions("canonicalize_request", name)
        return (
            bool(canonical)
            and canonical == self.positions("transform_request", name)
            and all(name in self.declarations[position][3] for position in canonical)
        )


#: The shape of each distinct declaration tuple, built once (the cache is bounded).
stack_shape = functools.lru_cache(maxsize=256)(StackShape)


class VariationStack:
    """An ordered collection of variations applied together.

    Hooks compose in order for outgoing transformations and in reverse order
    for results, which keeps nested reexpressions well-formed even though the
    paper's variations touch disjoint data types.

    Each hook walks a *per-name chain* (:meth:`_chain`): the variations, in
    stack order (or reverse order for results), whose declared footprint for
    that hook contains the call's name.  Leaving out a variation that
    declares it never rewrites the call is exactly the identity it would
    have applied, so a chain's result equals the full walk's.  The chain
    positions come from the stack's :class:`StackShape`, which every stack
    declared alike shares; the hook methods here bind the chain on every
    call, for the rounds and callers no round plan covers.
    """

    def __init__(self, variations: Sequence[Variation], num_variants: int = 2):
        for variation in variations:
            if variation.num_variants != num_variants:
                raise ValueError(
                    f"variation {variation.name} supports {variation.num_variants} "
                    f"variants, system wants {num_variants}"
                )
        self.variations = list(variations)
        self.num_variants = num_variants
        #: The first address variation's scheme, which carves every variant's
        #: address space, or ``None`` when no variation partitions memory.
        self.address_scheme = next(
            (v.scheme for v in self.variations if v.target_type == "address"), None
        )
        self.shape = stack_shape(
            tuple(
                [
                    (
                        variation.canonical_syscalls,
                        variation.transform_syscalls,
                        variation.result_syscalls,
                        variation.shared_rewrite_syscalls,
                    )
                    for variation in self.variations
                ]
            )
        )

    def _chain(self, hook: str, name: Syscall, *, reverse: bool = False) -> tuple[Callable, ...]:
        """The bound *hook* of every variation that may rewrite *name*."""
        positions = self.shape.positions(hook, name)
        return self.bind(hook, positions[::-1] if reverse else positions)

    def bind(self, hook: str, positions: tuple[int, ...]) -> tuple[Callable, ...]:
        """This stack's bound *hook* of the variation at each of *positions*."""
        members = self.variations
        return tuple([getattr(members[position], hook) for position in positions])

    def identity_variants(self) -> tuple[frozenset[int], ...]:
        """Each variation's :meth:`Variation.identity_variants`, in stack order."""
        return tuple([variation.identity_variants() for variation in self.variations])

    def shares_rewrite(self, name: Syscall) -> bool:
        """:meth:`StackShape.shares_rewrite` of this stack's shape."""
        return self.shape.shares_rewrite(name)

    def canonical_syscalls(self) -> frozenset[Syscall]:
        """Union of the stack's canonicalization footprints."""
        return self.shape.unions["canonicalize_request"]

    def transform_syscalls(self) -> frozenset[Syscall]:
        """Union of the stack's request-transformation footprints."""
        return self.shape.unions["transform_request"]

    def result_syscalls(self) -> frozenset[Syscall]:
        """Union of the stack's result-transformation footprints."""
        return self.shape.unions["transform_result"]

    def make_address_space(self, index: int) -> AddressSpace:
        """Variant *index*'s partition of :attr:`address_scheme`, or a flat space."""
        if self.address_scheme is None:
            return AddressSpace()
        return AddressSpace(scheme=self.address_scheme, index=index)

    def setup_unshared_files(self, fs: FileSystem) -> dict[str, list[str]]:
        """Union of every variation's unshared-file mappings."""
        mapping: dict[str, list[str]] = {}
        for variation in self.variations:
            mapping.update(variation.setup_unshared_files(fs))
        return mapping

    def transform_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Compose every variation's outgoing transformation."""
        for hook in self._chain("transform_request", request.name):
            request = hook(index, request)
        return request

    def transform_result(
        self, index: int, request: SyscallRequest, result: SyscallResult
    ) -> SyscallResult:
        """Compose every variation's result transformation (reverse order)."""
        for hook in self._chain("transform_result", request.name, reverse=True):
            result = hook(index, request, result)
        return result

    def canonicalize_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Compose every variation's canonicalization function."""
        for hook in self._chain("canonicalize_request", request.name):
            request = hook(index, request)
        return request

    def __iter__(self):
        return iter(self.variations)

    def __len__(self) -> int:
        return len(self.variations)


#: Each system-call hook with the footprint attribute that bounds it.
_HOOK_FOOTPRINTS = (
    ("canonicalize_request", "canonical_syscalls"),
    ("transform_request", "transform_syscalls"),
    ("transform_result", "result_syscalls"),
)
#: Each hook's column in a :class:`StackShape` declaration.
_HOOK_COLUMNS = {hook: column for column, (hook, _) in enumerate(_HOOK_FOOTPRINTS)}
#: Each hook with every attribute a class body defining it must assign.
_DECLARATIONS = _HOOK_FOOTPRINTS + (
    ("canonicalize_request", "shared_rewrite_syscalls"),
    ("transform_request", "shared_rewrite_syscalls"),
)
