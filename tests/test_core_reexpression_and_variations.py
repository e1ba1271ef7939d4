"""Tests for reexpression functions, their properties, and the Table 1 variations."""

import pytest
from hypothesis import given, strategies as st

from repro.core.reexpression import (
    check_disjointness,
    check_inverse_property,
    check_partial_overwrite_resilience,
    identity_reexpression,
    offset_reexpression,
    sample_domain,
    xor_reexpression,
)
from repro.core.variations import (
    AddressPartitioning,
    ExtendedAddressPartitioning,
    FullFlipUIDVariation,
    InstructionSetTagging,
    UIDVariation,
    VariationStack,
)
from repro.core.properties import check_variation_reexpression
from repro.kernel.syscalls import Syscall, SyscallResult, request

uid_values = st.integers(min_value=0, max_value=0x7FFFFFFF)
word_values = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestReexpressionFunctions:
    def test_identity_round_trips(self):
        function = identity_reexpression()
        assert function(1234) == 1234
        assert function.invert(1234) == 1234

    @given(uid_values)
    def test_xor_inverse_property(self, value):
        function = xor_reexpression(0x7FFFFFFF)
        assert function.invert(function(value)) == value

    @given(word_values)
    def test_offset_inverse_property(self, value):
        function = offset_reexpression(0x80000000)
        assert function.invert(function(value)) == value

    @given(word_values)
    def test_xor_disjointness_against_identity(self, value):
        identity = identity_reexpression()
        xor = xor_reexpression(0x7FFFFFFF)
        assert identity.invert(value) != xor.invert(value)

    def test_check_inverse_property_reports_counterexample(self):
        broken = xor_reexpression(0x1)
        object.__setattr__(broken, "inverse", lambda value: value)  # deliberately wrong
        report = check_inverse_property(broken, [0, 1, 2])
        assert not report.holds
        assert report.counterexample is not None

    def test_check_disjointness_detects_identical_inverses(self):
        identity = identity_reexpression()
        report = check_disjointness([identity, identity_reexpression()], [5, 6])
        assert not report.holds

    def test_sample_domain_includes_boundaries(self):
        samples = sample_domain(bits=31, count=16)
        assert 0 in samples and 0x7FFFFFFF in samples
        assert all(0 <= value < (1 << 31) or value == (1 << 31) - 1 for value in samples)

    def test_partial_overwrite_resilience_holds_for_low_bytes(self):
        uid = UIDVariation()
        inverses = uid.reexpressions()
        originals = [uid.encode(i, 33) for i in range(2)]
        for byte_count in (1, 2, 3):
            assert check_partial_overwrite_resilience(
                inverses, originals, byte_count=byte_count, injected=0
            )

    def test_high_byte_only_overwrite_can_evade_31_bit_mask(self):
        # Overwriting only the top byte with value whose low 7 bits match the
        # original's is outside the strict guarantee; the paper restricts the
        # claim to attacks that inject complete values or low-order bytes.
        uid = UIDVariation()
        inverses = uid.reexpressions()
        # Construct the evading high-byte value analytically: decoded values
        # collide only when the injected top byte makes both decodes agree.
        original = 0x00000021
        originals = [uid.encode(i, original) for i in range(2)]
        low_mask = (1 << 24) - 1
        evades = False
        for top in range(256):
            post = [(value & low_mask) | (top << 24) for value in originals]
            decoded = [function.invert(value) for function, value in zip(inverses, post)]
            if decoded[0] == decoded[1]:
                evades = True
        assert not evades  # a full top-byte overwrite is still detected


class TestUIDVariation:
    def test_variant_root_values(self, uid_variation):
        assert uid_variation.encode(0, 0) == 0
        assert uid_variation.encode(1, 0) == 0x7FFFFFFF

    @given(uid_values)
    def test_encode_decode_roundtrip(self, uid):
        variation = UIDVariation()
        for index in range(2):
            assert variation.decode(index, variation.encode(index, uid)) == uid

    @given(uid_values)
    def test_disjointness_over_valid_uids(self, value):
        variation = UIDVariation()
        assert variation.decode(0, value) != variation.decode(1, value)

    def test_transform_request_decodes_setuid_argument(self, uid_variation):
        encoded = uid_variation.encode(1, 33)
        transformed = uid_variation.transform_request(1, request(Syscall.SETUID, encoded))
        assert transformed.args == (33,)

    def test_transform_request_decodes_cc_comparison(self, uid_variation):
        encoded_a = uid_variation.encode(1, 0)
        encoded_b = uid_variation.encode(1, 33)
        transformed = uid_variation.transform_request(1, request(Syscall.CC_LT, encoded_a, encoded_b))
        assert transformed.args == (0, 33)

    def test_transform_request_leaves_uid_value_encoded(self, uid_variation):
        encoded = uid_variation.encode(1, 33)
        transformed = uid_variation.transform_request(1, request(Syscall.UID_VALUE, encoded))
        assert transformed.args == (encoded,)

    def test_transform_request_preserves_sentinel(self, uid_variation):
        transformed = uid_variation.transform_request(1, request(Syscall.SETREUID, -1, uid_variation.encode(1, 5)))
        assert transformed.args == (-1, 5)

    def test_transform_result_encodes_getuid(self, uid_variation):
        result = uid_variation.transform_result(
            1, request(Syscall.GETEUID), SyscallResult.success(0)
        )
        assert result.value == 0x7FFFFFFF

    def test_transform_result_ignores_failures(self, uid_variation):
        failed = SyscallResult.failure(errno=1)
        assert uid_variation.transform_result(1, request(Syscall.GETEUID), failed) is failed

    def test_canonicalize_uid_value_decodes(self, uid_variation):
        canonical = uid_variation.canonicalize_request(
            1, request(Syscall.UID_VALUE, uid_variation.encode(1, 33))
        )
        assert canonical.args == (33,)

    def test_setup_unshared_files_creates_variant_copies(self, kernel, uid_variation):
        mapping = uid_variation.setup_unshared_files(kernel.fs)
        assert mapping["/etc/passwd"] == ["/etc/passwd-0", "/etc/passwd-1"]
        assert kernel.fs.exists("/etc/passwd-1")
        variant1 = kernel.fs.read_file("/etc/passwd-1").decode()
        assert "2147483647" in variant1  # root's representation in variant 1

    def test_requires_exactly_two_variants(self):
        with pytest.raises(ValueError):
            UIDVariation(num_variants=3)

    def test_table1_row_mentions_xor_mask(self, uid_variation):
        row = uid_variation.table1_row()
        assert "7FFFFFFF" in row["reexpression"]

    def test_full_flip_variant_root_is_the_kernel_sentinel(self):
        variation = FullFlipUIDVariation()
        assert variation.encode(1, 0) == 0xFFFFFFFF


class TestAddressVariations:
    def test_partitioned_spaces_are_disjoint(self, address_partitioning):
        stack = VariationStack([address_partitioning])
        low, high = stack.make_address_space(0), stack.make_address_space(1)
        assert low.partition == 0 and high.partition == 1
        assert low.translate(0x4000) != high.translate(0x4000)

    def test_reexpression_matches_table1(self, address_partitioning):
        r1 = address_partitioning.reexpression(1)
        assert r1(0x1000) == 0x80001000

    def test_extended_partitioning_adds_offset(self):
        variation = ExtendedAddressPartitioning(offset=0x10000)
        assert variation.reexpression(1)(0x1000) == 0x80011000
        assert VariationStack([variation]).make_address_space(1).partition_base() == 0x80010000

    def test_extended_offset_validation(self):
        with pytest.raises(ValueError):
            ExtendedAddressPartitioning(offset=0)

    def test_properties_hold_for_all_table1_variations(self):
        for variation in (AddressPartitioning(), ExtendedAddressPartitioning(), InstructionSetTagging(), UIDVariation()):
            samples = sample_domain(bits=31 if variation.target_type == "uid" else 32, count=256)
            reports = check_variation_reexpression(variation, samples)
            assert all(report.holds for report in reports), variation.name


class TestInstructionSetTaggingVariation:
    def test_tag_and_untag_program(self):
        from repro.isa.instructions import Opcode, assemble

        variation = InstructionSetTagging()
        program = assemble([(Opcode.NOP,), (Opcode.HALT,)])
        tagged = variation.tag_program(program, 1)
        assert variation.untag_program(tagged, 1) == program

    def test_untag_with_wrong_variant_faults(self):
        from repro.isa.instructions import Opcode, assemble
        from repro.kernel.errors import IllegalInstructionFault

        variation = InstructionSetTagging()
        program = assemble([(Opcode.HALT,)])
        tagged = variation.tag_program(program, 0)
        with pytest.raises(IllegalInstructionFault):
            variation.untag_program(tagged, 1)


class TestVariationStack:
    def test_address_space_comes_from_first_provider(self):
        stack = VariationStack([UIDVariation(), AddressPartitioning()])
        assert stack.make_address_space(1).partition == 1

    def test_default_address_space_unpartitioned(self):
        stack = VariationStack([UIDVariation()])
        assert stack.make_address_space(0).partition is None

    def test_variant_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VariationStack([UIDVariation()], num_variants=3)

    def test_transform_composition(self, kernel):
        stack = VariationStack([AddressPartitioning(), UIDVariation()])
        encoded = UIDVariation().encode(1, 33)
        transformed = stack.transform_request(1, request(Syscall.SETUID, encoded))
        assert transformed.args == (33,)

    def test_unshared_files_union(self, kernel):
        stack = VariationStack([AddressPartitioning(), UIDVariation()])
        mapping = stack.setup_unshared_files(kernel.fs)
        assert "/etc/passwd" in mapping and "/etc/group" in mapping
