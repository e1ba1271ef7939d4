"""Property and regression tests for the N-ary partition-scheme API.

The :class:`~repro.memory.partition.PartitionScheme` protocol carries the
paper's whole security argument, so its invariants are pinned for *every*
scheme kind's constructor across N in 2..8:

* **round-trip** -- ``untranslate(i, translate(i, x)) == x`` everywhere
  (normal equivalence);
* **disjoint inverses** -- an injected concrete value decodes pairwise
  differently (detection);
* **placement** -- for region-carving schemes,
  ``partition_of(translate(i, a)) == i`` for every in-capacity nominal
  address, and the partitions are pairwise disjoint as sets.

The second half covers the layers rebased onto the protocol: the
:class:`~repro.memory.address_space.AddressSpace` regression the ISSUE
names (base offsets per partition, the once-dead ``partition_base``
conditional), registry/spec round-trips for ``"address-orbit"``, and the
memory-attack / corruption-model behaviour at N >= 3.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.builders import build_variations
from repro.api.registry import registry
from repro.api.spec import (
    ADDRESS_ORBIT_3_SPEC,
    COMBINED_ORBIT_3_SPEC,
    SystemSpec,
    address_orbit_spec,
    combined_orbit_spec,
)
from repro.core.variations.address import (
    AddressPartitioning,
    ExtendedAddressPartitioning,
    OrbitAddressPartitioning,
)
from repro.core.variations.uid import OrbitUIDVariation
from repro.kernel.errors import SegmentationFault
from repro.memory.address_space import AddressSpace, PARTITION_BIT
from repro.memory.corruption import (
    CorruptionSpec,
    corruption_outcomes,
    detectable_by_disjoint_inverses,
)
from repro.memory.memory_model import MemoryRegion
from repro.core.variations.base import VariationStack
from repro.memory.partition import (
    KeyedRegionScheme,
    KeyedXorMaskScheme,
    PartitionScheme,
    PartitionSchemeError,
    RegionScheme,
    XorMaskScheme,
    extended_orbit_scheme,
    fd_orbit_scheme,
    high_bit_scheme,
    orbit_scheme,
)

#: Variant counts the property suite sweeps.
SWEPT_COUNTS = tuple(range(2, 9))

#: Every scheme kind's constructor, called with the partition count alone.
CONSTRUCTORS = {
    "extended-orbit": extended_orbit_scheme,
    "fd-orbit": fd_orbit_scheme,
    "high-bit": high_bit_scheme,
    "keyed-address": functools.partial(KeyedRegionScheme, slide=True),
    "keyed-orbit": KeyedRegionScheme,
    "keyed-uid-xor": KeyedXorMaskScheme,
    "orbit": orbit_scheme,
    "uid-xor": XorMaskScheme.for_uids,
}


def _registered_schemes(num_partitions: int) -> list[PartitionScheme]:
    """Every scheme kind instantiable at *num_partitions*."""
    schemes = []
    for kind, construct in CONSTRUCTORS.items():
        try:
            scheme = construct(num_partitions)
        except PartitionSchemeError:
            # e.g. the paper's high-bit scheme only exists at N=2.
            assert kind == "high-bit" and num_partitions != 2
            continue
        assert scheme.kind == kind
        schemes.append(scheme)
    return schemes


def _scheme_id(scheme: PartitionScheme) -> str:
    return f"{scheme.kind}-N{scheme.num_partitions}"


ALL_SCHEMES = [scheme for n in SWEPT_COUNTS for scheme in _registered_schemes(n)]

concrete_values = st.integers(min_value=0, max_value=2**32 - 1)


class TestSchemeInvariants:
    """The protocol invariants, for every scheme kind and N in 2..8."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=_scheme_id)
    @settings(max_examples=40)
    @given(value=concrete_values)
    def test_translate_untranslate_round_trips(self, scheme, value):
        for index in range(scheme.num_partitions):
            assert scheme.untranslate(index, scheme.translate(index, value)) == value
            assert scheme.translate(index, scheme.untranslate(index, value)) == value

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=_scheme_id)
    @settings(max_examples=40)
    @given(value=concrete_values)
    def test_inverses_are_pairwise_disjoint(self, scheme, value):
        decoded = [scheme.untranslate(index, value) for index in range(scheme.num_partitions)]
        assert len(set(decoded)) == len(decoded), (
            f"{scheme.kind}: injected 0x{value:08X} decodes identically in two variants"
        )

    @pytest.mark.parametrize(
        "scheme", [s for s in ALL_SCHEMES if isinstance(s, RegionScheme)], ids=_scheme_id
    )
    @settings(max_examples=40)
    @given(data=st.data())
    def test_placement_invariant(self, scheme, data):
        nominal = data.draw(
            st.integers(min_value=0, max_value=scheme.nominal_capacity - 1)
        )
        for index in range(scheme.num_partitions):
            assert scheme.partition_of(scheme.translate(index, nominal)) == index

    @pytest.mark.parametrize(
        "scheme", [s for s in ALL_SCHEMES if isinstance(s, RegionScheme)], ids=_scheme_id
    )
    @settings(max_examples=40)
    @given(value=concrete_values)
    def test_partitions_are_pairwise_disjoint_sets(self, scheme, value):
        """A concrete value belongs to at most one partition."""
        owner = scheme.partition_of(value)
        assert owner is None or 0 <= owner < scheme.num_partitions

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=_scheme_id)
    def test_reexpressions_cover_every_partition(self, scheme):
        functions = scheme.reexpressions()
        assert len(functions) == scheme.num_partitions
        for index, function in enumerate(functions):
            assert function.forward(0x1234) == scheme.translate(index, 0x1234)
            assert function.inverse(function.forward(0x1234)) == 0x1234


class TestSchemeConstructors:
    def test_every_kind_is_swept_at_every_count(self):
        swept = {(s.kind, s.num_partitions) for s in ALL_SCHEMES}
        assert {kind for kind, _ in swept} == set(CONSTRUCTORS)
        assert len(swept) == 7 * len(SWEPT_COUNTS) + 1  # high-bit at N=2 only

    def test_high_bit_is_the_paper_scheme(self):
        scheme = high_bit_scheme(2)
        assert scheme.base_of(0) == 0
        assert scheme.base_of(1) == PARTITION_BIT

    def test_high_bit_rejects_other_counts(self):
        with pytest.raises(PartitionSchemeError):
            high_bit_scheme(3)

    def test_orbit_matches_high_bit_at_two(self):
        orbit, high = orbit_scheme(2), high_bit_scheme()
        for index in range(2):
            assert orbit.base_of(index) == high.base_of(index)

    def test_extended_orbit_offset_validation(self):
        with pytest.raises(PartitionSchemeError):
            extended_orbit_scheme(2, offset=0)
        with pytest.raises(PartitionSchemeError):
            extended_orbit_scheme(4, offset=1 << 30)

    def test_xor_masks_must_be_pairwise_distinct(self):
        with pytest.raises(PartitionSchemeError):
            XorMaskScheme((0, 1, 1))

    def test_xor_masks_must_leave_the_sign_bit_clear(self):
        """The Section 3.2 constraint is structural: a sign-bit mask would
        re-express valid UIDs into values the kernel refuses (the rejected
        full-flip design), so the scheme rejects it at construction."""
        with pytest.raises(PartitionSchemeError, match="sign bit"):
            XorMaskScheme((0, 0xFFFFFFFF))
        with pytest.raises(PartitionSchemeError, match="sign bit"):
            XorMaskScheme((0, 0x7FFFFFFF, 0x80000001))

    def test_too_few_partitions_rejected(self):
        with pytest.raises(PartitionSchemeError):
            orbit_scheme(1)

    def test_index_out_of_range_rejected(self):
        scheme = orbit_scheme(3)
        with pytest.raises(PartitionSchemeError):
            scheme.base_of(3)
        with pytest.raises(PartitionSchemeError):
            scheme.translate(-1, 0)


class TestAddressSpaceRebase:
    """The AddressSpace regression pins from the scheme rebase."""

    #: The ISSUE's regression test: base offsets per partition, per scheme.
    EXPECTED_BASES = {
        ("high-bit", 2): (0x00000000, 0x80000000),
        ("orbit", 2): (0x00000000, 0x80000000),
        ("orbit", 3): (0x00000000, 0x40000000, 0x80000000),
        ("orbit", 4): (0x00000000, 0x40000000, 0x80000000, 0xC0000000),
        ("orbit", 5): (
            0x00000000,
            0x20000000,
            0x40000000,
            0x60000000,
            0x80000000,
        ),
        ("extended-orbit", 2): (0x00000000, 0x80010000),
        ("extended-orbit", 3): (0x00000000, 0x40010000, 0x80020000),
    }

    @pytest.mark.parametrize("key", sorted(EXPECTED_BASES))
    def test_partition_base_offsets_pinned(self, key):
        kind, count = key
        scheme = CONSTRUCTORS[kind](count)
        bases = tuple(
            AddressSpace(scheme=scheme, index=index).partition_base()
            for index in range(count)
        )
        assert bases == self.EXPECTED_BASES[key]

    def test_partition_zero_base_is_always_zero(self):
        """The once-dead conditional's contract: partition 0 (and the
        unpartitioned space) add no offset, whatever the scheme's offset."""
        assert AddressSpace().partition_base() == 0
        for scheme in (high_bit_scheme(), orbit_scheme(5), extended_orbit_scheme(3, offset=0x123)):
            assert AddressSpace(scheme=scheme, index=0).partition_base() == 0

    def test_legacy_partition_flag_is_gone(self):
        with pytest.raises(TypeError):
            AddressSpace(partition=1)
        with pytest.raises(TypeError):
            AddressSpace(partition=0, base_offset=0x10000)

    def test_unpartitioned_space_rejects_nonzero_index(self):
        with pytest.raises(ValueError):
            AddressSpace(index=1)

    def test_mask_scheme_cannot_back_an_address_space(self):
        with pytest.raises(ValueError, match="carve"):
            AddressSpace(scheme=XorMaskScheme.for_uids(3), index=1)

    def test_region_overhanging_the_partition_is_rejected_at_map_time(self):
        """A nominal base legal under the wide N=2 split must be rejected by
        a narrower scheme when it maps, not fault later mid-workload."""
        wide = AddressSpace(scheme=high_bit_scheme(), index=0)
        wide.map_region(MemoryRegion("x", 0x50000000, 64))  # fits in 2^31
        narrow = AddressSpace(scheme=orbit_scheme(3), index=0)
        with pytest.raises(ValueError, match="capacity"):
            narrow.map_region(MemoryRegion("x", 0x50000000, 64))  # > 2^30

    def test_region_straddling_the_capacity_boundary_is_rejected(self):
        scheme = orbit_scheme(4)  # capacity 2^30 per partition
        space = AddressSpace(scheme=scheme, index=2)
        space.map_region(MemoryRegion("edge", scheme.nominal_capacity - 64, 64))
        with pytest.raises(ValueError, match="capacity"):
            AddressSpace(scheme=scheme, index=2).map_region(
                MemoryRegion("straddle", scheme.nominal_capacity - 32, 64)
            )

    @pytest.mark.parametrize("count", (3, 4, 5))
    def test_injected_address_valid_in_exactly_one_of_n_variants(self, count):
        scheme = orbit_scheme(count)
        spaces = [AddressSpace(scheme=scheme, index=i) for i in range(count)]
        for space in spaces:
            space.map_region(MemoryRegion("data", 0x1000, 64))
        injected = spaces[1].translate(0x1010)  # variant 1's concrete address
        outcomes = []
        for space in spaces:
            try:
                space.dereference(injected)
                outcomes.append("ok")
            except SegmentationFault:
                outcomes.append("fault")
        assert outcomes.count("ok") == 1
        assert outcomes.count("fault") == count - 1


class TestVariationsOnSchemes:
    """The variation layer is a thin wrapper over the scheme protocol."""

    @pytest.mark.parametrize("count", (2, 3, 5))
    def test_orbit_partitioning_spaces_are_pairwise_disjoint(self, count):
        stack = VariationStack([OrbitAddressPartitioning(count)], count)
        bases = [stack.make_address_space(i).partition_base() for i in range(count)]
        assert len(set(bases)) == count

    def test_address_partitioning_defaults_to_the_paper_scheme(self):
        assert AddressPartitioning().scheme.kind == "high-bit"
        assert AddressPartitioning(3).scheme.kind == "orbit"

    def test_scheme_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="partitions"):
            AddressPartitioning(2, scheme=orbit_scheme(3))

    def test_mask_scheme_rejected_for_address_partitioning(self):
        with pytest.raises(ValueError, match="region-carving"):
            AddressPartitioning(3, scheme=XorMaskScheme.for_uids(3))

    @pytest.mark.parametrize("count", (2, 3, 4))
    def test_extended_partitioning_is_n_ary(self, count):
        variation = ExtendedAddressPartitioning(offset=0x10000, num_variants=count)
        stack = VariationStack([variation], count)
        bases = [stack.make_address_space(i).partition_base() for i in range(count)]
        assert len(set(base & 0x00FFFFFF for base in bases)) == count, (
            "the Bruschi slide must change the low 3 bytes per variant"
        )

    def test_uid_orbit_masks_come_from_the_shared_scheme(self):
        variation = OrbitUIDVariation(4)
        assert isinstance(variation.scheme, XorMaskScheme)
        assert variation.masks == variation.scheme.masks
        for index in range(4):
            assert variation.encode(index, 0) == variation.scheme.translate(index, 0)

    def test_uid_orbit_accepts_a_custom_scheme(self):
        scheme = XorMaskScheme((0, 0x0000FFFF, 0x00FF00FF))
        variation = OrbitUIDVariation(3, scheme=scheme)
        assert variation.masks == (0, 0x0000FFFF, 0x00FF00FF)

    def test_uid_orbit_scheme_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="masks"):
            OrbitUIDVariation(3, scheme=XorMaskScheme.for_uids(4))


class TestAddressOrbitRegistryAndSpecs:
    """Registry and spec round-trips for the new address-orbit entry."""

    def test_registry_resolves_name_and_alias(self):
        assert "address-orbit" in registry
        by_name = registry.create("address-orbit", {"num_variants": 4})
        by_alias = registry.create("address-orbit-partitioning", {"num_variants": 4})
        assert type(by_name) is type(by_alias) is OrbitAddressPartitioning
        assert by_name.num_variants == 4

    def test_builders_forward_num_variants_into_the_scheme(self):
        for count in (3, 5, 7):
            variations = build_variations(address_orbit_spec(count))
            assert len(variations) == 1
            assert variations[0].num_variants == count
            assert variations[0].scheme.num_partitions == count

    @pytest.mark.parametrize(
        "spec",
        [
            ADDRESS_ORBIT_3_SPEC,
            COMBINED_ORBIT_3_SPEC,
            address_orbit_spec(5),
            combined_orbit_spec(4),
        ],
        ids=lambda spec: spec.name,
    )
    def test_spec_json_round_trip(self, spec):
        assert SystemSpec.from_json(spec.to_json()) == spec

    def test_combined_spec_builds_both_families(self):
        variations = build_variations(COMBINED_ORBIT_3_SPEC)
        assert [type(v) for v in variations] == [OrbitAddressPartitioning, OrbitUIDVariation]
        assert all(v.num_variants == 3 for v in variations)


class TestMemoryAttacksAtN3:
    """The attack library against N >= 3 partitions (end to end)."""

    @pytest.mark.parametrize(
        "spec",
        [ADDRESS_ORBIT_3_SPEC, COMBINED_ORBIT_3_SPEC, address_orbit_spec(4)],
        ids=lambda spec: spec.name,
    )
    def test_every_standard_address_attack_detected(self, spec):
        from repro.api.campaign import run_attack
        from repro.attacks.memory_attacks import standard_address_attacks

        for attack in standard_address_attacks():
            outcome = run_attack(attack, spec)
            assert outcome.detected, outcome.describe()
            assert not outcome.goal_reached

    def test_combined_orbit_detects_uid_attacks_too(self):
        from repro.api.campaign import run_attack
        from repro.attacks.outcomes import OutcomeKind
        from repro.attacks.uid_attacks import standard_uid_attacks

        for attack in standard_uid_attacks():
            if attack.name in ("low-bit-flip", "high-bit-flip"):
                continue  # the documented bit-granular exclusions
            outcome = run_attack(attack, COMBINED_ORBIT_3_SPEC)
            assert outcome.kind is OutcomeKind.DETECTED, outcome.describe()


class TestCorruptionModelAtN:
    """corruption.py's analytical model, generalised to any variant count."""

    @pytest.mark.parametrize("count", (2, 3, 5))
    def test_full_word_overwrite_detected_by_any_orbit(self, count):
        scheme = XorMaskScheme.for_uids(count)
        originals = tuple(scheme.translate(i, 33) for i in range(count))
        post = corruption_outcomes(originals, CorruptionSpec(kind="full-word", payload=0))
        assert post == (0,) * count
        inverses = [f.inverse for f in scheme.reexpressions(domain="uid")]
        assert detectable_by_disjoint_inverses(post, inverses)

    @pytest.mark.parametrize("count", (3, 4))
    def test_partial_overwrite_detected_at_n(self, count):
        scheme = XorMaskScheme.for_uids(count)
        originals = tuple(scheme.translate(i, 33) for i in range(count))
        spec = CorruptionSpec(kind="partial-bytes", payload=0, byte_count=2)
        post = corruption_outcomes(originals, spec)
        inverses = [f.inverse for f in scheme.reexpressions(domain="uid")]
        assert detectable_by_disjoint_inverses(post, inverses)

    def test_identical_corruption_without_diversity_is_missed(self):
        """N identical variants (mask 0 everywhere is illegal, so emulate
        with identity inverses): same post value decodes identically."""
        post = (0, 0, 0)
        identity = lambda value: value  # noqa: E731 - three references needed
        assert not detectable_by_disjoint_inverses(post, [identity] * 3)
