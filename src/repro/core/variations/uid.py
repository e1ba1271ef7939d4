"""The UID data variation (Section 3 of the paper).

Variant 0 keeps the ordinary UID representation (``R_0`` is the identity);
variant 1 stores every UID XORed with ``0x7FFFFFFF``, so root is represented
as ``0x7FFFFFFF`` instead of 0.  The two inverse functions are disjoint
(flipping 31 bits always changes the value), so any attacker-injected
concrete UID decodes to two different users and the monitor raises an alarm
at the first use.

The variation supplies every hook the framework needs:

* inverse reexpression of uid_t arguments ahead of the kernel (``setuid`` and
  friends, plus the cc_* detection comparisons so that ordering comparisons
  are evaluated on real values);
* forward reexpression of uid_t results (``getuid`` and friends), so each
  variant only ever holds its own representation;
* canonicalization of UID-carrying calls for the monitor's equivalence check;
* per-variant unshared copies of ``/etc/passwd`` and ``/etc/group``
  (Section 3.4), generated by applying ``R_i`` to the numeric columns.

``FullFlipUIDVariation`` (XOR ``0xFFFFFFFF``) is included for the ablation
discussed in Section 3.2: it flips the sign bit, which the kernel rejects, so
the benchmark can demonstrate exactly why the paper settled for the 31-bit
mask and what blind spot that choice leaves (a high-bit-only overwrite).
"""

from __future__ import annotations

from repro.core.reexpression import (
    ReexpressionFunction,
    identity_reexpression,
    xor_reexpression,
)
from repro.core.variations.base import Variation
from repro.kernel.errors import Errno
from repro.kernel.filesystem import FileSystem
from repro.memory.partition import (
    KeyedXorMaskScheme,
    UID_MASK_31,
    XorMaskScheme,
)
from repro.kernel.host import install_diversified_user_db
from repro.kernel.syscalls import (
    Syscall,
    SyscallRequest,
    SyscallResult,
    UID_COMPARISON_SYSCALLS,
    UID_PARAMETER_SYSCALLS,
    UID_RESULT_SYSCALLS,
    _trusted_request,
    _trusted_success,
)

#: The "ideal" mask discussed and rejected in Section 3.2.
UID_MASK_32 = 0xFFFFFFFF

#: The uid_t argument positions of every call whose request the variation
#: decodes both for the monitor and for the kernel: the setuid family (and
#: chown) plus the cc_* comparisons, which compare their first two arguments.
_DECODED_POSITIONS: dict[Syscall, tuple[int, ...]] = {
    **UID_PARAMETER_SYSCALLS,
    **{name: (0, 1) for name in UID_COMPARISON_SYSCALLS},
}
#: What canonicalization decodes: the same, plus ``uid_value``'s argument.
_CANONICAL_POSITIONS = {**_DECODED_POSITIONS, Syscall.UID_VALUE: (0,)}
# Bound once: attribute access on an Enum class goes through the metaclass's
# ``__getattr__`` hook, several times slower than a module global.
_ERRNO_OK = Errno.OK
#: The (uid_t)-1 sentinel in both spellings; never decoded (see
#: :meth:`UIDVariation._decode_positions`).
_SENTINELS = (-1, 0xFFFFFFFF)
#: The positions of the cc_* comparisons' (and ``setreuid``'s) two uid_t arguments.
_FIRST_TWO = (0, 1)


class UIDVariation(Variation):
    """Diversifies uid_t/gid_t representations across two variants."""

    name = "uid-variation"
    target_type = "uid"
    reference = "this paper (Nguyen-Tuong et al., DSN 2008)"

    #: Only UID-carrying calls are ever rewritten; everything else takes the
    #: engine's batched-comparison fast path.
    transform_syscalls = frozenset(UID_PARAMETER_SYSCALLS) | UID_COMPARISON_SYSCALLS
    canonical_syscalls = transform_syscalls | {Syscall.UID_VALUE}
    result_syscalls = UID_RESULT_SYSCALLS
    #: The setuid family, chown and cc_* decode the same way for both hooks.
    shared_rewrite_syscalls = frozenset(_DECODED_POSITIONS)

    def __init__(self, mask: int = UID_MASK_31, *, num_variants: int = 2):
        if num_variants != 2:
            raise ValueError("the UID variation is defined for exactly two variants")
        if not isinstance(mask, int) or isinstance(mask, bool):
            raise TypeError(f"mask must be int, got {type(mask).__name__} {mask!r}")
        if mask == 0:
            # R_1 would be the identity: root is 0 in both variants, so the
            # variants are not disjoint (Section 2.3) and nothing is detected.
            raise ValueError("mask must be nonzero: mask 0 encodes root as 0 in both variants")
        #: Every variant's XOR mask: variant 0 keeps the identity.
        self.masks = (0, mask)
        self.num_variants = num_variants
        self._install_functions([identity_reexpression("uid"), xor_reexpression(mask, "uid")])

    def _install_functions(self, functions: "list[ReexpressionFunction]") -> None:
        """Adopt *functions* as ``R_0 .. R_{N-1}``.

        The per-variant forward and inverse callables are unpacked once, so
        the hooks index a list instead of going through :meth:`reexpression`.
        New masks must go through this method so no hook keeps the old key,
        and no round plan skips a variant whose mask is no longer 0.
        """
        self._functions = functions
        self._forward = [function.forward for function in functions]
        self._inverse = [function.inverse for function in functions]
        self._identity_variants = frozenset(
            index for index, mask in enumerate(self.masks) if mask == 0
        )

    @property
    def mask(self) -> int:
        """``R_1``'s mask."""
        return self.masks[1]

    # -- reexpression ------------------------------------------------------------

    def reexpression(self, index: int) -> ReexpressionFunction:
        """``R_0`` = identity, ``R_1`` = XOR with the mask."""
        self._check_index(index)
        return self._functions[index]

    def encode(self, index: int, uid: int) -> int:
        """Variant *index*'s concrete representation of semantic *uid*."""
        if not 0 <= index < self.num_variants:
            raise self._index_error(index)
        return self._forward[index](uid)

    def decode(self, index: int, value: int) -> int:
        """Semantic UID corresponding to variant *index*'s concrete *value*."""
        if not 0 <= index < self.num_variants:
            raise self._index_error(index)
        return self._inverse[index](value)

    # -- system-call hooks ----------------------------------------------------------

    def identity_variants(self) -> frozenset[int]:
        """The variants whose mask is 0 (variant 0 of every public scheme).

        XOR with 0 decodes and encodes every value to itself, so each hook
        returns a request or result equal to the one it was given.
        """
        return self._identity_variants

    def transform_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Apply ``R_index^-1`` to uid_t arguments ahead of the kernel.

        Covers the setuid family (Section 3.5) and the cc_* detection
        comparisons, whose whole point is that the kernel performs the
        comparison on decoded values so the variants' instruction streams can
        stay identical.
        """
        if request.name in _DECODED_POSITIONS:
            # The same decode the monitor compares.
            return self.canonicalize_request(index, request)
        if not 0 <= index < self.num_variants:
            raise self._index_error(index)
        return request

    def transform_result(
        self, index: int, request: SyscallRequest, result: SyscallResult
    ) -> SyscallResult:
        """Apply ``R_index`` to trusted uid_t results (getuid family)."""
        if not 0 <= index < self.num_variants:
            raise self._index_error(index)
        if request.name in UID_RESULT_SYSCALLS and result.errno is _ERRNO_OK:
            return _trusted_success(self._forward[index](result.value))
        return result

    def canonicalize_request(self, index: int, request: SyscallRequest) -> SyscallRequest:
        """Decode UID-carrying arguments so the monitor compares real values.

        ``uid_value`` keeps its encoded argument on the way to the kernel
        (the call returns exactly what was passed in), so canonicalization is
        where its cross-variant equivalence check happens.
        """
        if not 0 <= index < self.num_variants:
            raise self._index_error(index)
        positions = _CANONICAL_POSITIONS.get(request.name)
        if positions is None:
            return request
        args = request.args
        arity = len(args)
        if arity == 1 and positions[0] == 0:
            # The setuid family's one argument, decoded without the general loop.
            value = args[0]
            if not isinstance(value, int) or isinstance(value, bool) or value in _SENTINELS:
                return request
            decoded_args = (self._inverse[index](value),)
        elif (
            arity == 2
            and positions == _FIRST_TWO
            and args[0].__class__ is int
            and args[1].__class__ is int
            and args[0] not in _SENTINELS
            and args[1] not in _SENTINELS
        ):
            # The cc_* comparisons' two plain uid_t values, likewise.
            inverse = self._inverse[index]
            decoded_args = (inverse(args[0]), inverse(args[1]))
        else:
            decoded_args = self._decode_positions(index, args, positions)
        # An identity decode (variant 0) keeps the request it was given.
        return request if decoded_args == args else _trusted_request(request.name, decoded_args)

    # -- unshared files ---------------------------------------------------------------

    def setup_unshared_files(self, fs: FileSystem) -> dict[str, list[str]]:
        """Create ``/etc/passwd-i`` and ``/etc/group-i`` (Section 3.4)."""
        created = install_diversified_user_db(fs, self.masks)
        mapping: dict[str, list[str]] = {}
        for original, variant_path in created:
            mapping.setdefault(original, []).append(variant_path)
        return mapping

    # -- helpers ------------------------------------------------------------------------

    def _decode_positions(
        self, index: int, args: tuple, positions: tuple[int, ...]
    ) -> tuple:
        """*args* with the uid_t values at *positions* decoded (*index* is valid)."""
        inverse = self._inverse[index]
        new_args = list(args)
        for position in positions:
            if position >= len(new_args):
                continue
            value = new_args[position]
            if not isinstance(value, int) or isinstance(value, bool):
                continue
            # (uid_t)-1 is the POSIX "leave unchanged"/error sentinel for the
            # setreuid family and chown; the kernel special-cases it before any
            # other interpretation, so it is never decoded.  This is exactly
            # the special treatment of "negative" UID values that Section 3.2
            # cites as the reason the full 32-bit flip cannot be used: under
            # XOR 0xFFFFFFFF, variant 1's representation of root *is* the
            # sentinel, which breaks normal equivalence (see the mask
            # ablation benchmark).
            if value in _SENTINELS:
                continue
            new_args[position] = inverse(value)
        return tuple(new_args)


class FullFlipUIDVariation(UIDVariation):
    """Ablation variation: XOR with ``0xFFFFFFFF`` (flips the sign bit too).

    Section 3.2 explains why the paper rejected this function: the kernel
    treats negative UID values specially, so variant 1's representation of an
    ordinary UID is a value the kernel refuses.  Running this variation shows
    the failure concretely; it also closes the high-bit-overwrite blind spot
    of the 31-bit mask in the analytical detection model, which is what makes
    the trade-off interesting to benchmark.
    """

    name = "uid-variation-full-flip"
    reference = "Section 3.2 ablation (rejected design)"

    def __init__(self) -> None:
        super().__init__(mask=UID_MASK_32)


class OrbitUIDVariation(UIDVariation):
    """N-way generalisation of the UID variation (``R_i`` = XOR ``mask_i``).

    The paper deploys two variants; nothing in its detection argument is
    specific to N=2.  This variation gives each of N variants its own 31-bit
    XOR mask (variant 0 keeps the identity, variant 1 keeps the paper's
    ``0x7FFFFFFF``), so any concrete injected UID decodes to N pairwise
    different semantic values and the first use diverges in every sibling
    pair.  The campaign layer uses it to sweep variant count as an axis of
    the attacks x configurations cross product.

    Since PR 5 the mask derivation runs through the same
    :class:`~repro.memory.partition.PartitionScheme` protocol the address
    variations use: the standard orbit is
    :meth:`XorMaskScheme.for_uids(num_variants) <repro.memory.partition.\
XorMaskScheme.for_uids>` (whose masks come from
    :func:`~repro.memory.partition.default_uid_masks`), and any other
    :class:`~repro.memory.partition.XorMaskScheme` may be injected -- both
    diversity families now share one re-expression abstraction.
    """

    name = "uid-orbit-variation"
    reference = "N-way extension of Section 3 (this reproduction)"

    def __init__(self, num_variants: int = 3, *, scheme: "XorMaskScheme | None" = None):
        if scheme is None:
            scheme = XorMaskScheme.for_uids(num_variants)
        if scheme.num_partitions != num_variants:
            raise ValueError(
                f"scheme {scheme.kind!r} holds {scheme.num_partitions} masks, "
                f"variation wants {num_variants}"
            )
        self.scheme = scheme
        self.num_variants = num_variants
        self._install_functions(scheme.reexpressions(domain="uid"))

    @property
    def masks(self) -> tuple[int, ...]:
        """Every variant's XOR mask, read from the scheme."""
        return self.scheme.masks

    def rekey(self, secret: "Sequence[int] | None" = None) -> bool:
        """Rekey the scheme, then rebuild the cached per-variant functions."""
        keyed = super().rekey(secret)
        self._install_functions(self.scheme.reexpressions(domain="uid"))
        return keyed


class KeyedUIDVariation(OrbitUIDVariation):
    """UID orbit with *secret* masks drawn from a keyed scheme.

    Every public UID scheme lets a source-reading attacker compute each
    variant's concrete representation of root.  Here the masks come from a
    :class:`~repro.memory.partition.KeyedXorMaskScheme` keyed by ``key_bits``
    of entropy (optionally pinned by *seed*), so crafting a concrete value
    that decodes to a chosen UID in even one variant requires guessing that
    variant's mask.  The pairwise-distinct guarantee is unchanged: any
    injected concrete value still decodes differently in at least two
    variants, so detection stays deterministic -- the key only removes the
    attacker's ability to *choose* what any variant decodes.  Keys rotate on
    session restart, through :meth:`~OrbitUIDVariation.rekey`.
    """

    name = "uid-keyed-variation"
    reference = "keyed extension of Section 3 (this reproduction)"

    def __init__(
        self,
        num_variants: int = 2,
        *,
        key_bits: int = 16,
        seed: "int | None" = None,
    ):
        super().__init__(
            num_variants,
            scheme=KeyedXorMaskScheme(num_variants, key_bits=key_bits, seed=seed),
        )
        self.key_bits = key_bits
        self.seed = seed
