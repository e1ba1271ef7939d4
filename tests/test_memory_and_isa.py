"""Tests for the memory substrate and the miniature ISA with tagging."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.instructions import (
    INSTRUCTION_SIZE,
    Instruction,
    Opcode,
    assemble,
    encode_stream,
)
from repro.isa.interpreter import Interpreter
from repro.isa.tagging import inject_untagged, tag_stream, untag_stream
from repro.kernel.errors import IllegalInstructionFault, SegmentationFault
from repro.memory.address_space import AddressSpace, PARTITION_BIT
from repro.memory.partition import extended_orbit_scheme, high_bit_scheme
from repro.memory.corruption import (
    CorruptionSpec,
    apply_corruption,
    corruption_outcomes,
    detectable_by_disjoint_inverses,
)
from repro.memory.memory_model import MemoryRegion, MemoryVariable, StackFrame, WORD_SIZE

words = st.integers(min_value=0, max_value=0xFFFFFFFF)


def overflow_payload(buffer_size, overwrite_value):
    """A classic overflow: ``A`` fills the buffer, then the little-endian word."""
    return b"A" * buffer_size + overwrite_value.to_bytes(WORD_SIZE, "little")


def decode_stream(raw):
    """A flat (untagged) byte stream decoded back into instructions."""
    return [
        Instruction.decode(raw[offset : offset + INSTRUCTION_SIZE])
        for offset in range(0, len(raw), INSTRUCTION_SIZE)
    ]


class TestMemoryRegion:
    def test_word_roundtrip(self):
        region = MemoryRegion("r", 0x1000, 64)
        word = MemoryVariable("w", region, 4)
        word.set(0x1DEADBEEF)
        assert word.get() == 0xDEADBEEF
        assert region.read(0x1004, 4) == (0xDEADBEEF).to_bytes(4, "little")

    @pytest.mark.parametrize("offset", [-1, 61, 64, 1000])
    def test_a_word_outside_its_region_faults_like_a_raw_access(self, offset):
        region = MemoryRegion("r", 0x1000, 64)
        word = MemoryVariable("w", region, 0)
        word.offset = offset
        with pytest.raises(SegmentationFault) as raw:
            region.read(0x1000 + offset, 4)
        for access in (word.get, lambda: word.set(7)):
            with pytest.raises(SegmentationFault) as fault:
                access()
            assert str(fault.value) == str(raw.value)
            assert fault.value.address == raw.value.address
        assert bytes(region.data) == bytes(64)

    def test_the_region_bounds_hold_at_both_ends(self):
        region = MemoryRegion("r", 0x1000, 16)
        assert region.read(0x100C, 4) == bytes(4)
        assert region.read(0x1010 - 1, 1) == b"\x00"
        for address, count in ((0x0FFF, 1), (0x100D, 4), (0x1010, 0), (0x1010, 1)):
            with pytest.raises(SegmentationFault):
                region.read(address, count)
        with pytest.raises(ValueError, match="negative"):
            region.read(0x1000, -1)

    def test_out_of_bounds_access_faults(self):
        region = MemoryRegion("r", 0x1000, 16)
        with pytest.raises(SegmentationFault):
            region.read(0x1010, 4)
        with pytest.raises(SegmentationFault):
            region.write(0x0FFF, b"x")

    def test_unchecked_copy_clamped_to_region(self):
        region = MemoryRegion("r", 0, 8)
        written = region.unchecked_copy(4, b"ABCDEFGH")
        assert written == 4
        assert bytes(region.data) == b"\x00" * 4 + b"ABCD"

    def test_relocate_preserves_contents(self):
        region = MemoryRegion("r", 0, 8)
        region.write(0, b"hi")
        moved = region.relocate(0x100)
        assert moved.read(0x100, 2) == b"hi"

    def test_stack_frame_layout_is_allocation_ordered(self):
        region = MemoryRegion("frame", 0, 128)
        frame = StackFrame(region)
        buf = frame.alloc_buffer("buf", 16)
        uid = frame.alloc_word("uid", 33)
        assert uid.offset == buf.offset + 16
        assert uid.get() == 33
        assert frame.layout()[0][0] == "buf"

    def test_variable_bounds_check(self):
        region = MemoryRegion("frame", 0, 8)
        frame = StackFrame(region)
        frame.alloc_word("a")
        frame.alloc_word("b")
        with pytest.raises(ValueError):
            frame.alloc_word("c")


class TestAddressSpacePartitioning:
    def test_unpartitioned_accepts_any_mapped_address(self):
        space = AddressSpace()
        region = space.map_region(MemoryRegion("data", 0x1000, 64))
        assert space.load_bytes(region.base, 4) == bytes(4)

    def test_partition_translation_matches_table1(self):
        scheme = high_bit_scheme()
        low = AddressSpace(scheme=scheme, index=0)
        high = AddressSpace(scheme=scheme, index=1)
        assert low.translate(0x1000) == 0x1000
        assert high.translate(0x1000) == 0x80001000
        assert high.untranslate(0x80001000) == 0x1000

    def test_access_outside_partition_faults(self):
        high = AddressSpace(scheme=high_bit_scheme(), index=1)
        high.map_region(MemoryRegion("data", 0x1000, 64))
        with pytest.raises(SegmentationFault):
            high.load_bytes(0x1000, 4)  # low-partition absolute address

    def test_injected_absolute_address_valid_in_at_most_one_variant(self):
        scheme = high_bit_scheme()
        spaces = [AddressSpace(scheme=scheme, index=i) for i in range(2)]
        for space in spaces:
            space.map_region(MemoryRegion("data", 0x1000, 64))
        injected = 0x1010
        outcomes = []
        for space in spaces:
            try:
                space.dereference(injected)
                outcomes.append("ok")
            except SegmentationFault:
                outcomes.append("fault")
        assert outcomes.count("fault") >= 1

    def test_extended_offset_changes_low_bytes(self):
        space = AddressSpace(scheme=extended_orbit_scheme(2, offset=0x12345), index=1)
        assert space.translate(0x1000) == (0x1000 + PARTITION_BIT + 0x12345) & 0xFFFFFFFF

    def test_overlapping_regions_rejected(self):
        space = AddressSpace()
        space.map_region(MemoryRegion("a", 0x1000, 64))
        with pytest.raises(ValueError):
            space.map_region(MemoryRegion("b", 0x1020, 64))

    def test_unmapped_address_faults(self):
        space = AddressSpace(scheme=high_bit_scheme(), index=0)
        with pytest.raises(SegmentationFault):
            space.load_bytes(0x5000, 4)


class TestCorruptionPrimitives:
    def _uid_var(self, initial=33):
        region = MemoryRegion("frame", 0, 64)
        frame = StackFrame(region)
        return frame.alloc_word("uid", initial)

    def test_full_word_overwrite(self):
        var = self._uid_var()
        apply_corruption(var, CorruptionSpec(kind="full-word", payload=0))
        assert var.get() == 0

    def test_partial_overwrite_keeps_high_bytes(self):
        var = self._uid_var(0x11223344)
        apply_corruption(var, CorruptionSpec(kind="partial-bytes", payload=0xAA, byte_count=1))
        assert var.get() == 0x112233AA

    def test_bit_flip(self):
        var = self._uid_var(0)
        apply_corruption(var, CorruptionSpec(kind="bit-flip", payload=31))
        assert var.get() == 0x80000000

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            CorruptionSpec(kind="laser", payload=1)
        with pytest.raises(ValueError):
            CorruptionSpec(kind="partial-bytes", payload=0, byte_count=5)
        with pytest.raises(ValueError):
            CorruptionSpec(kind="bit-flip", payload=32)

    def test_overflow_buffer_reaches_adjacent_word(self):
        region = MemoryRegion("frame", 0, 128)
        frame = StackFrame(region)
        buf = frame.alloc_buffer("buf", 16)
        uid = frame.alloc_word("uid", 33)
        # An unchecked copy into the buffer spills into the word after it.
        region.unchecked_copy(buf.address, overflow_payload(16, 0))
        assert uid.get() == 0

    def test_corruption_outcomes_model_matches_memory(self):
        spec = CorruptionSpec(kind="partial-bytes", payload=0, byte_count=2)
        originals = (33, 33 ^ 0x7FFFFFFF)
        predicted = corruption_outcomes(originals, spec)
        for original, expected in zip(originals, predicted):
            var = self._uid_var(original)
            apply_corruption(var, spec)
            assert var.get() == expected

    @given(words)
    def test_full_overwrite_always_detected_by_disjoint_inverses(self, payload):
        spec = CorruptionSpec(kind="full-word", payload=payload)
        post = corruption_outcomes((33, 33 ^ 0x7FFFFFFF), spec)
        inverses = (lambda v: v, lambda v: v ^ 0x7FFFFFFF)
        assert detectable_by_disjoint_inverses(post, inverses)

    @given(st.integers(min_value=0, max_value=0xFFFFFF), st.integers(min_value=1, max_value=3))
    def test_partial_overwrite_detected(self, payload, byte_count):
        spec = CorruptionSpec(kind="partial-bytes", payload=payload, byte_count=byte_count)
        post = corruption_outcomes((33, 33 ^ 0x7FFFFFFF), spec)
        inverses = (lambda v: v, lambda v: v ^ 0x7FFFFFFF)
        assert detectable_by_disjoint_inverses(post, inverses)

    def test_sign_bit_flip_is_the_blind_spot(self):
        spec = CorruptionSpec(kind="bit-flip", payload=31)
        post = corruption_outcomes((33, 33 ^ 0x7FFFFFFF), spec)
        inverses = (lambda v: v, lambda v: v ^ 0x7FFFFFFF)
        assert not detectable_by_disjoint_inverses(post, inverses)


class TestInstructionEncoding:
    def test_encode_decode_roundtrip(self):
        instruction = Instruction(Opcode.LOADI, 3, 0xABC)
        assert Instruction.decode(instruction.encode()) == instruction

    def test_stream_roundtrip(self):
        program = assemble([(Opcode.LOADI, 1, 5), (Opcode.ADD, 1, 1), (Opcode.HALT,)])
        assert decode_stream(encode_stream(program)) == program

    def test_operand_range_checked(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.LOADI, 0x1000, 0)

    @given(st.sampled_from(list(Opcode)), st.integers(0, 0xFFF), st.integers(0, 0xFFF))
    def test_roundtrip_property(self, opcode, a, b):
        instruction = Instruction(opcode, a, b)
        assert Instruction.decode(instruction.encode()) == instruction


class TestInterpreter:
    def test_arithmetic_program(self):
        program = assemble(
            [(Opcode.LOADI, 1, 40), (Opcode.LOADI, 2, 2), (Opcode.ADD, 1, 2), (Opcode.HALT,)]
        )
        state = Interpreter().run(program)
        assert state.registers[1] == 42

    def test_store_and_load(self):
        program = assemble(
            [
                (Opcode.LOADI, 1, 7),
                (Opcode.LOADI, 2, 64),
                (Opcode.STORE, 2, 1),
                (Opcode.LOAD, 3, 2),
                (Opcode.HALT,),
            ]
        )
        state = Interpreter().run(program)
        assert state.registers[3] == 7

    def test_jump_and_jz(self):
        program = assemble(
            [
                (Opcode.LOADI, 1, 0),
                (Opcode.JZ, 3, 1),
                (Opcode.LOADI, 2, 99),
                (Opcode.HALT,),
            ]
        )
        state = Interpreter().run(program)
        assert state.registers[2] == 0

    def test_syscall_logged_and_handled(self):
        seen = []
        interpreter = Interpreter(syscall_handler=lambda n, args: seen.append((n, args)) or 7)
        program = assemble([(Opcode.LOADI, 0, 59), (Opcode.SYSCALL,), (Opcode.HALT,)])
        state = interpreter.run(program)
        assert seen and seen[0][0] == 59
        assert state.registers[0] == 7

    def test_out_of_range_memory_faults(self):
        program = assemble([(Opcode.LOADI, 1, 0xFFF), (Opcode.LOADI, 2, 0xFFF), (Opcode.ADD, 1, 2), (Opcode.STORE, 1, 2), (Opcode.HALT,)])
        with pytest.raises(SegmentationFault):
            Interpreter().run(program)


class TestTagging:
    def test_tag_untag_roundtrip(self):
        program = assemble([(Opcode.NOP,), (Opcode.HALT,)])
        for variant in range(2):
            assert untag_stream(tag_stream(program, variant), variant) == program

    def test_wrong_tag_raises(self):
        program = assemble([(Opcode.NOP,), (Opcode.HALT,)])
        tagged_for_zero = tag_stream(program, 0)
        with pytest.raises(IllegalInstructionFault):
            untag_stream(tagged_for_zero, 1)

    def test_retag_translates_between_variants(self):
        program = assemble([(Opcode.LOADI, 1, 9), (Opcode.HALT,)])
        retagged = tag_stream(untag_stream(tag_stream(program, 0), 0), 1)
        assert untag_stream(retagged, 1) == program

    def test_injected_untagged_bytes_fault_in_some_variant(self):
        program = assemble([(Opcode.NOP,)] * 4 + [(Opcode.HALT,)])
        payload = assemble([(Opcode.LOADI, 0, 59), (Opcode.SYSCALL,)])
        faults = 0
        for variant in range(2):
            corrupted = inject_untagged(tag_stream(program, variant), payload, 5)
            try:
                untag_stream(corrupted, variant)
            except IllegalInstructionFault:
                faults += 1
        assert faults >= 1

    def test_untagged_clean_stream_executes(self):
        program = assemble([(Opcode.LOADI, 1, 11), (Opcode.HALT,)])
        state = Interpreter().run(untag_stream(tag_stream(program, 1), 1))
        assert state.registers[1] == 11

    def test_truncated_tagged_stream_rejected(self):
        with pytest.raises(IllegalInstructionFault):
            untag_stream(b"\x00\x01\x02", 0)
