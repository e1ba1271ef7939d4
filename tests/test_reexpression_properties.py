"""Property-style round-trip tests for the Table 1 re-expression functions.

Two directions carry normal equivalence: ``R^-1(R(x)) = x`` over the whole
domain, and ``R(R^-1(y)) = y`` over the image of ``R`` (for the invertible
UID/address functions the image is the whole 32-bit domain, so both hold
everywhere; instruction tagging's inverse is deliberately partial and is only
required to round-trip on correctly tagged values).  The second half of the
file pins the canonicalization contract: representations that diverge only
because of re-expression must compare equal in the monitor, while an
attacker's identical injected value must not.
"""

import pytest
from hypothesis import given, strategies as st

from repro.api.registry import registry
from repro.core.monitor import Monitor, SyscallComparator
from repro.core.reexpression import (
    check_disjointness,
    check_inverse_property,
    sample_domain,
)
from repro.core.variations import TABLE1_VARIATIONS
from repro.core.variations.base import VariationStack
from repro.core.variations.uid import UIDVariation
from repro.engine import NVariantSession
from repro.kernel.host import build_standard_host
from repro.kernel.libc import Libc
from repro.kernel.syscalls import Syscall, request

#: The boundary values the issue pins: 0, 1, 65535 and the domain maxima,
#: plus the 31-bit mask edge where the UID variation's blind spot lives.
BOUNDARY_VALUES = (0, 1, 65535, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)

#: Every (variation name, reexpression function) pair of Table 1.
TABLE1_FUNCTIONS = [
    (variation.name, index, variation.reexpression(index))
    for variation in map(registry.create, TABLE1_VARIATIONS)
    for index in range(variation.num_variants)
]


def _function_id(entry):
    name, index, _ = entry
    return f"{name}-R{index}"


class TestRoundTrips:
    @pytest.mark.parametrize("entry", TABLE1_FUNCTIONS, ids=_function_id)
    @pytest.mark.parametrize("value", BOUNDARY_VALUES)
    def test_inverse_of_forward_at_boundaries(self, entry, value):
        _, _, function = entry
        assert function.inverse(function.forward(value)) == value

    @pytest.mark.parametrize("entry", TABLE1_FUNCTIONS, ids=_function_id)
    @pytest.mark.parametrize("value", BOUNDARY_VALUES)
    def test_forward_of_inverse_on_image(self, entry, value):
        """``R(R^-1(y)) = y`` for every y the variant can legitimately hold."""
        _, _, function = entry
        image_value = function.forward(value)
        assert function.forward(function.inverse(image_value)) == image_value

    @pytest.mark.parametrize(
        "name", [n for n in TABLE1_VARIATIONS if n != "instruction-tagging"]
    )
    @pytest.mark.parametrize("value", BOUNDARY_VALUES)
    def test_total_functions_round_trip_both_ways(self, name, value):
        """The UID/address functions are bijections on the 32-bit domain, so
        the image-restricted property extends to arbitrary concrete values."""
        for function in registry.create(name).reexpressions():
            assert function.forward(function.inverse(value)) == value

    @pytest.mark.parametrize("entry", TABLE1_FUNCTIONS, ids=_function_id)
    @given(value=st.integers(min_value=0, max_value=2**32 - 1))
    def test_inverse_property_holds_everywhere(self, entry, value):
        _, _, function = entry
        assert function.round_trips(value)

    @pytest.mark.parametrize("name", TABLE1_VARIATIONS)
    def test_inverse_property_over_sampled_domain(self, name):
        for function in registry.create(name).reexpressions():
            report = check_inverse_property(function, sample_domain())
            assert report.holds, report.describe()

    @pytest.mark.parametrize("name", TABLE1_VARIATIONS)
    def test_disjointness_over_sampled_domain(self, name):
        variation = registry.create(name)
        report = check_disjointness(variation.reexpressions(), sample_domain())
        assert report.holds, report.describe()


#: Boundary UIDs whose variant encodings avoid the ``(uid_t)-1`` sentinel
#: collision (see test_sentinel_collision_is_outside_normal_equivalence).
CANONICALIZABLE_UIDS = tuple(v for v in BOUNDARY_VALUES if v != 0x80000000)


class TestCanonicalizationEquivalence:
    """Divergent representations of the same semantic value compare equal."""

    @pytest.mark.parametrize("uid", CANONICALIZABLE_UIDS)
    def test_seteuid_representations_canonicalize_equal(self, uid):
        variation = UIDVariation()
        stack = VariationStack([variation])
        requests = [
            stack.canonicalize_request(index, request(Syscall.SETEUID, variation.encode(index, uid)))
            for index in range(2)
        ]
        assert requests[0].args == requests[1].args

    @pytest.mark.parametrize("uid", CANONICALIZABLE_UIDS)
    @pytest.mark.parametrize(
        "syscall", [Syscall.SETEUID, Syscall.SETUID, Syscall.SETGID, Syscall.UID_VALUE]
    )
    def test_monitor_accepts_divergent_representations(self, uid, syscall):
        variation = UIDVariation()
        monitor = Monitor()
        comparator = SyscallComparator(VariationStack([variation]), monitor)
        alarm = comparator.check_round(
            [request(syscall, variation.encode(index, uid)) for index in range(2)]
        )
        assert alarm is None
        assert not monitor.attack_detected

    # Semantic uid_t values are 31-bit under the paper's mask: the sign-bit
    # range is the documented Section 3.2 blind spot, and 0x80000000 encodes
    # in variant 1 to 0xFFFFFFFF -- the POSIX (uid_t)-1 sentinel that
    # canonicalization must never decode.  Equality is therefore only
    # promised on the 31-bit domain; the boundary itself is pinned below.
    @given(left=st.integers(min_value=0, max_value=2**31 - 1),
           right=st.integers(min_value=0, max_value=2**31 - 1))
    def test_cc_comparison_arguments_canonicalize_equal(self, left, right):
        variation = UIDVariation()
        stack = VariationStack([variation])
        canonical = [
            stack.canonicalize_request(
                index,
                request(Syscall.CC_EQ, variation.encode(index, left), variation.encode(index, right)),
            )
            for index in range(2)
        ]
        assert canonical[0].args == canonical[1].args

    def test_sign_bit_values_fall_outside_the_canonicalization_promise(self):
        """0x80000000 encodes in variant 1 to the (uid_t)-1 sentinel, which
        canonicalization skips -- the concrete mechanism behind the 31-bit
        mask's sign-bit blind spot (Section 3.2)."""
        variation = UIDVariation()
        stack = VariationStack([variation])
        assert variation.encode(1, 0x80000000) == 0xFFFFFFFF
        canonical = [
            stack.canonicalize_request(
                index, request(Syscall.CC_EQ, variation.encode(index, 0x80000000), 0)
            )
            for index in range(2)
        ]
        assert canonical[0].args != canonical[1].args

    @pytest.mark.parametrize("injected", (0, 1, 65535, 0x7FFFFFFF, 0x80000000))
    def test_identical_injected_value_is_divergent(self, injected):
        """The flip side of canonicalization: an attacker's replicated
        concrete value decodes differently and must raise an alarm."""
        monitor = Monitor()
        comparator = SyscallComparator(VariationStack([UIDVariation()]), monitor)
        alarm = comparator.check_round(
            [request(Syscall.SETEUID, injected) for _ in range(2)]
        )
        assert alarm is not None
        assert monitor.attack_detected

    def test_sentinel_minus_one_is_the_documented_exception(self):
        """(uid_t)-1 is never decoded (POSIX leave-unchanged sentinel), so an
        injected 0xFFFFFFFF compares equal -- the Section 3.2 special case."""
        monitor = Monitor()
        comparator = SyscallComparator(VariationStack([UIDVariation()]), monitor)
        alarm = comparator.check_round(
            [request(Syscall.SETEUID, 0xFFFFFFFF) for _ in range(2)]
        )
        assert alarm is None

    def test_sentinel_collision_is_outside_normal_equivalence(self):
        """Semantic uid 0x80000000 encodes in variant 1 to exactly the
        sentinel (0x80000000 XOR 0x7FFFFFFF = 0xFFFFFFFF), so its decoding is
        skipped and the representations do NOT canonicalize equal.  This is
        the 'negative UID values are treated specially' boundary Section 3.2
        gives for rejecting the full 32-bit flip; real systems never hand such
        UIDs to a setuid call, and the kernel refuses them anyway."""
        variation = UIDVariation()
        stack = VariationStack([variation])
        canonical = [
            stack.canonicalize_request(
                index, request(Syscall.SETEUID, variation.encode(index, 0x80000000))
            )
            for index in range(2)
        ]
        assert canonical[0].args != canonical[1].args


def _session_round(variations, requests):
    """Step a fresh session through one lockstep round of *requests*.

    Variant *i* issues ``requests[i]``; returns the session after the round.
    """

    def factory(context):
        issued = requests[context.index]
        yield Libc.syscall(issued.name, *issued.args)

    session = NVariantSession(
        build_standard_host(), factory, variations, num_variants=len(requests)
    )
    session.step()
    return session


class TestComparatorFastPath:
    """The raw comparison a session's round plan makes for calls outside the
    canonicalization footprint must be behaviourally identical to the
    canonicalize-everything slow path."""

    def test_unaffected_syscall_takes_fast_path(self):
        session = _session_round(
            [UIDVariation()], [request(Syscall.WRITE, 1, b"same") for _ in range(2)]
        )
        monitor = session.monitor
        assert not monitor.alarms
        assert monitor.stats.fast_path_rounds == 1
        assert monitor.stats.lockstep_points == 1
        assert monitor.stats.syscalls_compared == 2

    def test_uid_syscall_bypasses_fast_path(self):
        variation = UIDVariation()
        session = _session_round(
            [UIDVariation()],
            [request(Syscall.SETEUID, variation.encode(index, 33)) for index in range(2)],
        )
        monitor = session.monitor
        assert monitor.stats.fast_path_rounds == 0
        assert monitor.stats.lockstep_points == 1

    def test_fast_path_divergence_raises_the_same_alarm(self):
        fast_monitor = Monitor()
        comparator = SyscallComparator(VariationStack([UIDVariation()]), fast_monitor)
        divergent = [request(Syscall.WRITE, 1, b"a"), request(Syscall.WRITE, 1, b"b")]
        fast_alarm = comparator.check_round(divergent)

        slow_monitor = Monitor()
        slow_alarm = slow_monitor.check_syscalls(divergent)
        assert fast_alarm is not None and slow_alarm is not None
        assert fast_alarm.alarm_type is slow_alarm.alarm_type
        assert fast_alarm.variant_values == slow_alarm.variant_values
        assert fast_monitor.stats.lockstep_points == slow_monitor.stats.lockstep_points

    def test_transform_round_decodes_mixed_name_rounds(self):
        """Regression: a round where only a later variant issues a
        UID-carrying call (possible under halt_on_alarm=False after a
        syscall-mismatch alarm) must still decode that variant's arguments."""
        variation = UIDVariation()
        comparator = SyscallComparator(VariationStack([variation]), Monitor())
        transformed = comparator.transform_round(
            [request(Syscall.NANOSLEEP, 1), request(Syscall.SETEUID, variation.encode(1, 5))]
        )
        assert transformed[0].args == (1,)
        assert transformed[1].args == (5,)

    def test_a_variation_without_hooks_keeps_the_fast_path(self):
        """A subclass that defines no hook inherits the identity hooks and
        their empty footprints, so its rounds compare raw."""
        from repro.core.variations.base import Variation

        class NoHooks(Variation):
            name = "no-hooks"

        session = _session_round([NoHooks()], [request(Syscall.WRITE, 1, b"x") for _ in range(2)])
        assert not session.monitor.alarms
        assert session.monitor.stats.fast_path_rounds == 1

    def test_a_redeclared_override_canonicalizes_exactly_its_declared_calls(self):
        """A subclass that overrides canonicalization for ``write`` and
        declares it there takes ``write`` off the fast path, and only that."""
        seen = []

        class WiderCanonicalization(UIDVariation):
            name = "wider-canonicalization"
            canonical_syscalls = UIDVariation.canonical_syscalls | {Syscall.WRITE}
            shared_rewrite_syscalls = UIDVariation.shared_rewrite_syscalls

            def canonicalize_request(self, index, req):
                seen.append(req.name)
                return super().canonicalize_request(index, req)

        stack = VariationStack([WiderCanonicalization()])
        assert stack.canonical_syscalls() == WiderCanonicalization.canonical_syscalls
        session = _session_round(
            [WiderCanonicalization()], [request(Syscall.WRITE, 1, b"x") for _ in range(2)]
        )
        assert session.monitor.stats.fast_path_rounds == 0
        assert seen == [Syscall.WRITE, Syscall.WRITE]

    def test_shipped_variations_keep_write_on_the_fast_path(self):
        """Shipped variations declare footprint and hook in the same class
        (or inherit both) -- a plain ``write`` stays outside them."""
        from repro.core.variations.address import AddressPartitioning

        for variation in (UIDVariation(), registry.create("uid-full-flip"), AddressPartitioning()):
            assert Syscall.WRITE not in VariationStack([variation]).canonical_syscalls(), (
                variation.name
            )
