"""The UID data variation (Section 3 of the paper).

Variant *i* stores every UID XORed with its mask ``masks[i]``.  In the
paper's two variants, variant 0 keeps the ordinary representation (mask 0,
``R_0`` is the identity) and variant 1 uses ``0x7FFFFFFF``, so root is
represented as ``0x7FFFFFFF`` instead of 0.  The two inverse functions are
disjoint (flipping 31 bits always changes the value), so any
attacker-injected concrete UID decodes to two different users and the
monitor raises an alarm at the first use.

The variation supplies every hook the framework needs, each one XOR with
the variant's mask:

* inverse reexpression of uid_t arguments ahead of the kernel (``setuid`` and
  friends, plus the cc_* detection comparisons so that ordering comparisons
  are evaluated on real values);
* forward reexpression of uid_t results (``getuid`` and friends), so each
  variant only ever holds its own representation;
* canonicalization of UID-carrying calls for the monitor's equivalence check;
* per-variant unshared copies of ``/etc/passwd`` and ``/etc/group``
  (Section 3.4), generated by applying ``R_i`` to the numeric columns.

One class serves every registered layout; each factory here only chooses
the masks, and the registry row names the result:

* ``UIDVariation(mask)`` -- the paper's two variants (``uid``);
* :func:`uid_full_flip` -- XOR ``0xFFFFFFFF``, the ablation discussed in
  Section 3.2: it flips the sign bit, which the kernel rejects, so the
  benchmark can show why the paper settled for the 31-bit mask and what
  blind spot that choice leaves (a high-bit-only overwrite);
* :func:`uid_orbit` -- N variants, each with its own mask from an
  :class:`~repro.memory.partition.XorMaskScheme`;
* :func:`uid_keyed` -- N secret masks drawn from a
  :class:`~repro.memory.partition.KeyedXorMaskScheme`, redrawn by
  :meth:`UIDVariation.rekey`.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    """Diversifies uid_t/gid_t representations: variant *i* XORs them with ``masks[i]``.

    ``UIDVariation(mask)`` is the paper's two variants, masks ``(0, mask)``;
    :meth:`from_scheme` takes N masks from a scheme.
    """

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
        if not 0 < mask <= UID_MASK_32:
            raise ValueError(f"mask must lie in 1..0xFFFFFFFF, a 32-bit uid_t; got {mask}")
        #: Every variant's XOR mask: variant 0 keeps the identity.
        self.masks = (0, mask)
        self.num_variants = num_variants

    @classmethod
    def from_scheme(cls, scheme: XorMaskScheme, num_variants: int) -> "UIDVariation":
        """*num_variants* variants with *scheme*'s masks, kept in step by :meth:`rekey`."""
        if scheme.num_partitions != num_variants:
            raise ValueError(
                f"scheme {scheme.kind!r} holds {scheme.num_partitions} masks, "
                f"variation wants {num_variants}"
            )
        # The paper's pair, then the scheme's masks in place of its two.
        variation = cls()
        variation.scheme = scheme
        variation.masks = scheme.masks
        variation.num_variants = num_variants
        return variation

    @property
    def mask(self) -> int:
        """``R_1``'s mask."""
        return self.masks[1]

    # -- reexpression ------------------------------------------------------------

    def reexpression(self, index: int) -> ReexpressionFunction:
        """``R_index``: the identity for mask 0, XOR with the mask otherwise."""
        self._check_index(index)
        mask = self.masks[index]
        if mask == 0:
            return identity_reexpression("uid")
        return xor_reexpression(mask, "uid")

    def encode(self, index: int, uid: int) -> int:
        """Variant *index*'s concrete representation of semantic *uid*."""
        if not 0 <= index < self.num_variants:
            raise self._index_error(index)
        return uid ^ self.masks[index]

    def decode(self, index: int, value: int) -> int:
        """Semantic UID corresponding to variant *index*'s concrete *value*."""
        if not 0 <= index < self.num_variants:
            raise self._index_error(index)
        return value ^ self.masks[index]

    # -- keys --------------------------------------------------------------------

    def rekey(self, secret: Optional[Sequence[int]] = None) -> bool:
        """Rekey the scheme, then take its masks, so every hook uses the new key."""
        keyed = super().rekey(secret)
        if keyed:
            self.masks = self.scheme.masks
        return keyed

    # -- system-call hooks ----------------------------------------------------------

    def identity_variants(self) -> frozenset[int]:
        """The variants whose mask is 0 (variant 0 of every public layout).

        XOR with 0 decodes and encodes every value to itself, so each hook
        returns a request or result equal to the one it was given.
        """
        return frozenset([index for index, mask in enumerate(self.masks) if mask == 0])

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
            return _trusted_success(result.value ^ self.masks[index])
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
            decoded_args = (value ^ self.masks[index],)
        elif (
            arity == 2
            and positions == _FIRST_TWO
            and args[0].__class__ is int
            and args[1].__class__ is int
            and args[0] not in _SENTINELS
            and args[1] not in _SENTINELS
        ):
            # The cc_* comparisons' two plain uid_t values, likewise.
            mask = self.masks[index]
            decoded_args = (args[0] ^ mask, args[1] ^ mask)
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
        mask = self.masks[index]
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
            new_args[position] = value ^ mask
        return tuple(new_args)


def uid_full_flip() -> UIDVariation:
    """The rejected Section 3.2 design: variant 1 XORs with ``0xFFFFFFFF``.

    The kernel treats negative UID values specially, so variant 1's
    representation of an ordinary UID is a value the kernel refuses.
    Running this layout shows the failure concretely; it also closes the
    high-bit-overwrite blind spot of the 31-bit mask in the analytical
    detection model, which is what makes the trade-off worth benchmarking.
    """
    return UIDVariation(UID_MASK_32)


def uid_orbit(num_variants: int = 3, *, scheme: Optional[XorMaskScheme] = None) -> UIDVariation:
    """N variants, each with its own 31-bit XOR mask.

    The paper deploys two variants; nothing in its detection argument is
    specific to N=2.  The standard orbit is :meth:`XorMaskScheme.for_uids
    <repro.memory.partition.XorMaskScheme.for_uids>` (variant 0 keeps the
    identity, variant 1 the paper's ``0x7FFFFFFF``), so any concrete
    injected UID decodes to N pairwise different semantic values and the
    first use diverges in every sibling pair; any other *scheme* may be
    injected.  The campaign layer sweeps variant count through it.
    """
    if scheme is None:
        scheme = XorMaskScheme.for_uids(num_variants)
    return UIDVariation.from_scheme(scheme, num_variants)


def uid_keyed(
    num_variants: int = 2, *, key_bits: int = 16, seed: Optional[int] = None
) -> UIDVariation:
    """N *secret* masks drawn from ``key_bits`` of entropy (pinned by *seed*).

    Every public layout lets a source-reading attacker compute each
    variant's concrete representation of root; here crafting a value that
    decodes to a chosen UID in even one variant requires guessing that
    variant's mask.  The masks stay pairwise distinct, so any injected
    concrete value still decodes differently in at least two variants and
    detection stays deterministic -- the key only removes the attacker's
    ability to *choose* what any variant decodes.  Keys rotate on session
    restart, through :meth:`UIDVariation.rekey`.
    """
    scheme = KeyedXorMaskScheme(num_variants, key_bits=key_bits, seed=seed)
    return UIDVariation.from_scheme(scheme, num_variants)
