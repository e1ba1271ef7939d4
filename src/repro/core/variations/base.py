"""Base class for N-variant variations.

A *variation* is one diversity technique deployed across the variants: it
defines the reexpression function each variant uses for its target data type
(Table 1 of the paper) and the hooks the framework needs to keep the variants
normally equivalent:

* how to build each variant's address space (address-space partitioning),
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
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.reexpression import ReexpressionFunction, identity_reexpression
from repro.kernel.filesystem import FileSystem
from repro.kernel.syscalls import Syscall, SyscallRequest, SyscallResult
from repro.memory.address_space import AddressSpace


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

    #: The system calls :meth:`canonicalize_request` may rewrite, or ``None``
    #: when the set cannot be stated statically.  Declaring the footprint lets
    #: the lockstep engine's :class:`~repro.core.monitor.SyscallComparator`
    #: skip canonicalization entirely for unaffected calls; ``None`` disables
    #: that fast path, so an undeclared subclass stays correct, just slower.
    #: A subclass overriding :meth:`canonicalize_request` without redeclaring
    #: this in the same class is detected by :class:`VariationStack`, which
    #: then treats the footprint as unknown -- a stale inherited declaration
    #: can never silently bypass the subclass's canonicalization.  The two
    #: footprints below follow the same contract and the same guard.
    canonical_syscalls: Optional[frozenset[Syscall]] = None

    #: The system calls :meth:`transform_request` may rewrite (same contract
    #: as :attr:`canonical_syscalls`, for the outgoing-request hook).
    transform_syscalls: Optional[frozenset[Syscall]] = None

    #: The system calls whose results :meth:`transform_result` may rewrite
    #: (for the incoming-result hook).  The lockstep session hands every
    #: other call's result to the variants without walking the stack.
    result_syscalls: Optional[frozenset[Syscall]] = None

    # -- reexpression functions ------------------------------------------------

    def reexpression(self, index: int) -> ReexpressionFunction:
        """The reexpression function ``R_index`` for variant *index*."""
        self._check_index(index)
        return identity_reexpression(self.target_type)

    def reexpressions(self) -> list[ReexpressionFunction]:
        """All variants' reexpression functions, in variant order."""
        return [self.reexpression(i) for i in range(self.num_variants)]

    # -- per-variant construction hooks -------------------------------------------

    def make_address_space(self, index: int) -> Optional[AddressSpace]:
        """Address space for variant *index*, or ``None`` if unaffected."""
        self._check_index(index)
        return None

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
            raise ValueError(
                f"variant index {index} out of range for {self.name} "
                f"({self.num_variants} variants)"
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} target={self.target_type!r}>"


class VariationStack:
    """An ordered collection of variations applied together.

    Hooks compose in order for outgoing transformations and in reverse order
    for results, which keeps nested reexpressions well-formed even though the
    paper's variations touch disjoint data types.
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
        self._canonical_syscalls = self._union_footprint(
            "canonical_syscalls", "canonicalize_request"
        )
        self._transform_syscalls = self._union_footprint(
            "transform_syscalls", "transform_request"
        )
        self._result_syscalls = self._union_footprint("result_syscalls", "transform_result")

    @staticmethod
    def _declaring_class(cls: type, attribute: str) -> Optional[type]:
        for klass in cls.__mro__:
            if attribute in vars(klass):
                return klass
        return None

    def _union_footprint(self, attribute: str, hook: str) -> Optional[frozenset[Syscall]]:
        footprint: frozenset[Syscall] = frozenset()
        for variation in self.variations:
            declared = getattr(variation, attribute)
            if declared is None:
                return None
            # A class that overrides the hook below where the footprint was
            # declared inherited a footprint that cannot be trusted to cover
            # the override; fall back to "unknown" so the fast path is
            # disabled rather than silently skipping the new rewrite.
            hook_class = self._declaring_class(type(variation), hook)
            declaration_class = self._declaring_class(type(variation), attribute)
            if (
                hook_class is not None
                and declaration_class is not None
                and hook_class is not declaration_class
                and issubclass(hook_class, declaration_class)
            ):
                return None
            footprint |= declared
        return footprint

    def canonical_syscalls(self) -> Optional[frozenset[Syscall]]:
        """Union of the stack's canonicalization footprints (``None`` = unknown)."""
        return self._canonical_syscalls

    def transform_syscalls(self) -> Optional[frozenset[Syscall]]:
        """Union of the stack's request-transformation footprints."""
        return self._transform_syscalls

    def result_syscalls(self) -> Optional[frozenset[Syscall]]:
        """Union of the stack's result-transformation footprints."""
        return self._result_syscalls

    def make_address_space(self, index: int) -> AddressSpace:
        """First variation-provided address space, or a default flat space."""
        for variation in self.variations:
            space = variation.make_address_space(index)
            if space is not None:
                return space
        return AddressSpace()

    def setup_unshared_files(self, fs: FileSystem) -> dict[str, list[str]]:
        """Union of every variation's unshared-file mappings."""
        mapping: dict[str, list[str]] = {}
        for variation in self.variations:
            mapping.update(variation.setup_unshared_files(fs))
        return mapping

    def transform_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Compose every variation's outgoing transformation."""
        for variation in self.variations:
            request = variation.transform_request(index, request)
        return request

    def transform_result(
        self, index: int, request: SyscallRequest, result: SyscallResult
    ) -> SyscallResult:
        """Compose every variation's result transformation (reverse order)."""
        for variation in reversed(self.variations):
            result = variation.transform_result(index, request, result)
        return result

    def canonicalize_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Compose every variation's canonicalization function."""
        for variation in self.variations:
            request = variation.canonicalize_request(index, request)
        return request

    def __iter__(self):
        return iter(self.variations)

    def __len__(self) -> int:
        return len(self.variations)
