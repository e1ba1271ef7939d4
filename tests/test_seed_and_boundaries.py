"""Seed-derivation stability and partition-boundary (EFAULT-edge) properties.

Two foundations the scenario corpus leans on get pinned here.
:func:`~repro.api.seeding.derive_seed` must be *stable across releases* --
a corpus generated at seed S claims to regenerate byte-identically, which
dies silently if the derivation ever changes -- so its exact values are
snapshot-pinned alongside hypothesis properties for determinism and
distinctness.  And :func:`~repro.memory.partition.boundary_values` must
enumerate real guarantee edges: one below every partition's first concrete
value and one past its last, ``untranslate`` must land outside the nominal
capacity -- the EFAULT edge where a variant's dereference faults -- for
every region-carving scheme at every N in 2..8.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.seeding import derive_seed
from repro.kernel.errors import SegmentationFault
from repro.memory.address_space import AddressSpace
from repro.memory.partition import (
    GLOBAL_EDGE_VALUES,
    VALUE_MASK,
    KeyedRegionScheme,
    XorMaskScheme,
    boundary_values,
    extended_orbit_scheme,
    high_bit_scheme,
    orbit_scheme,
)
from repro.memory.memory_model import MemoryRegion

COUNTS = tuple(range(2, 9))

#: Region-carving scheme builders swept over N (high-bit is N=2 only).
CARVING_SCHEMES = [
    pytest.param(n, kind, param_id, id=f"{param_id}-n{n}")
    for n in COUNTS
    for kind, param_id in (
        ("orbit", "orbit"),
        ("extended-orbit", "extended-orbit"),
        ("keyed-orbit", "keyed-orbit"),
        ("keyed-address", "keyed-address"),
    )
] + [pytest.param(2, "high-bit", "high-bit", id="high-bit-n2")]


def _build(kind: str, n: int):
    if kind.startswith("keyed"):
        seed = derive_seed(20080625, "boundary", kind, n)
        return KeyedRegionScheme(n, seed=seed, slide=kind == "keyed-address")
    public = {"orbit": orbit_scheme, "extended-orbit": extended_orbit_scheme, "high-bit": high_bit_scheme}
    return public[kind](n)


_labels = st.lists(
    st.one_of(st.integers(), st.text(max_size=12)), min_size=0, max_size=4
)


class TestDeriveSeed:
    """The corpus's determinism rests on this exact function."""

    def test_pinned_snapshot_values(self):
        # These integers must never change: committed corpora, keyed-spec
        # masks and BENCH baselines all flow from them.
        assert derive_seed(20080625) == 4984890044155200635
        assert derive_seed(20080625, "keyed-uid", 2) == 241059225242527006
        assert derive_seed(0) == 3456079177858693020
        assert derive_seed(1, "a", "b") == 8130363559398102941

    @settings(max_examples=200)
    @given(root=st.integers(min_value=0, max_value=2**63 - 1), labels=_labels)
    def test_deterministic_and_63_bit(self, root, labels):
        first = derive_seed(root, *labels)
        assert first == derive_seed(root, *labels)
        assert 0 <= first < 2**63

    @settings(max_examples=200)
    @given(
        root=st.integers(min_value=0, max_value=2**32),
        a=_labels,
        b=_labels,
    )
    def test_distinct_label_paths_give_distinct_seeds(self, root, a, b):
        if list(map(str, a)) == list(map(str, b)):
            assert derive_seed(root, *a) == derive_seed(root, *b)
        else:
            assert derive_seed(root, *a) != derive_seed(root, *b)

    @settings(max_examples=100)
    @given(
        roots=st.sets(st.integers(min_value=0, max_value=2**63 - 1), min_size=2, max_size=2),
        labels=_labels,
    )
    def test_distinct_roots_give_distinct_seeds(self, roots, labels):
        first, second = sorted(roots)
        assert derive_seed(first, *labels) != derive_seed(second, *labels)


class TestPartitionBoundaries:
    """boundary_values enumerates the EFAULT edge of every carving scheme."""

    @pytest.mark.parametrize("n,kind,_id", CARVING_SCHEMES)
    def test_untranslate_misses_at_every_partition_edge(self, n, kind, _id):
        scheme = _build(kind, n)
        capacity = scheme.nominal_capacity
        by_label = {entry.label: entry for entry in boundary_values(scheme)}
        for index in range(n):
            first = by_label.get(f"p{index}-first")
            last = by_label.get(f"p{index}-last")
            if first is not None:
                # In-bounds side: the placement invariant holds at the edge.
                assert scheme.partition_of(first.value) == index
                assert 0 <= scheme.untranslate(index, first.value) < capacity
            if last is not None:
                assert scheme.partition_of(last.value) == index
                assert 0 <= scheme.untranslate(index, last.value) < capacity
            for edge in (f"p{index}-below", f"p{index}-past"):
                entry = by_label.get(edge)
                if entry is None:
                    continue  # deduped into a neighbour's first/last
                # The EFAULT edge: one step out, variant *index*'s inverse
                # map lands outside the nominal capacity and a dereference
                # must fault.
                assert scheme.untranslate(index, entry.value) >= capacity, edge

    @pytest.mark.parametrize("n", COUNTS)
    def test_mask_scheme_edges_are_the_masks(self, n):
        scheme = XorMaskScheme.for_uids(n)
        entries = boundary_values(scheme)
        by_label = {entry.label: entry.value for entry in entries}
        for index, mask in enumerate(scheme.masks):
            label = f"p{index}-mask"
            if label in by_label:  # mask 0 dedupes into the global "zero"
                assert by_label[label] == mask
        # Every global 32-bit edge value is present (whatever label won the
        # dedupe -- mask 0 and the "zero" edge share a concrete value).
        values = {entry.value for entry in entries}
        assert {value for _, value in GLOBAL_EDGE_VALUES} <= values

    @pytest.mark.parametrize("n", COUNTS)
    def test_boundary_enumeration_is_deterministic(self, n):
        scheme = orbit_scheme(n)
        assert boundary_values(scheme) == boundary_values(orbit_scheme(n))

    @pytest.mark.parametrize("n", COUNTS)
    def test_past_boundary_dereference_faults_in_the_address_space(self, n):
        scheme = orbit_scheme(n)
        capacity = scheme.nominal_capacity
        for index in range(n):
            space = AddressSpace(scheme=scheme, index=index)
            space.map_region(MemoryRegion("edge", capacity - 64, 64))
            # The last in-capacity word reads; one past the edge faults.
            space.dereference(scheme.translate(index, capacity - 4))
            with pytest.raises(SegmentationFault):
                space.dereference((scheme.base_of(index) + capacity) & VALUE_MASK)
