"""Bit-level I/O: the foundation every codec builds on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bitio import (
    BitReader,
    BitWriter,
    bits_required,
    pack_codes,
    unpack_codes,
)
from repro.errors import CorruptStreamError


class TestBitsRequired:
    def test_zero_needs_one_bit(self):
        assert bits_required(0) == 1

    def test_one_needs_one_bit(self):
        assert bits_required(1) == 1

    def test_paper_example(self):
        # Algorithm 2's comment: n=2 for number=3.
        assert bits_required(3) == 2

    def test_powers_of_two(self):
        for exponent in range(1, 32):
            assert bits_required(1 << exponent) == exponent + 1
            assert bits_required((1 << exponent) - 1) == exponent

    def test_max_uint32(self):
        assert bits_required(0xFFFFFFFF) == 32

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bits_required(-1)


class TestBitWriter:
    def test_empty_writer(self):
        writer = BitWriter()
        assert writer.getvalue() == b""
        assert len(writer) == 0

    def test_single_byte(self):
        writer = BitWriter()
        writer.write(0xAB, 8)
        assert writer.getvalue() == b"\xab"

    def test_msb_first_packing(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0b1, 1)
        assert writer.getvalue() == bytes([0b1011_0000])

    def test_cross_byte_value(self):
        writer = BitWriter()
        writer.write(0xFFF, 12)
        assert writer.getvalue() == b"\xff\xf0"

    def test_bit_length_tracks_writes(self):
        writer = BitWriter()
        writer.write(1, 1)
        writer.write(0, 5)
        assert writer.bit_length == 6
        writer.write(0x7F, 7)
        assert writer.bit_length == 13

    def test_zero_width_write_is_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert len(writer) == 0

    def test_value_too_wide_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(4, 2)

    def test_negative_value_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(-1, 4)

    def test_negative_width_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(0, -1)

    def test_write_bytes_aligned(self):
        writer = BitWriter()
        writer.write_bytes(b"abc")
        assert writer.getvalue() == b"abc"

    def test_write_bytes_unaligned(self):
        writer = BitWriter()
        writer.write(1, 4)
        writer.write_bytes(b"\xff")
        assert writer.getvalue() == b"\x1f\xf0"

    def test_align_pads_with_zeros(self):
        writer = BitWriter()
        writer.write(1, 1)
        writer.align()
        assert writer.bit_length == 8
        assert writer.getvalue() == b"\x80"

    def test_align_on_boundary_is_noop(self):
        writer = BitWriter()
        writer.write(0xFF, 8)
        writer.align()
        assert writer.bit_length == 8

    def test_getvalue_does_not_mutate(self):
        writer = BitWriter()
        writer.write(0b11, 2)
        first = writer.getvalue()
        second = writer.getvalue()
        assert first == second
        writer.write(0b111111, 6)
        assert writer.getvalue() == bytes([0b1111_1111])

    def test_large_value_64_bits(self):
        writer = BitWriter()
        writer.write((1 << 64) - 1, 64)
        assert writer.getvalue() == b"\xff" * 8


class TestBitReader:
    def test_read_back_single(self):
        reader = BitReader(b"\xab")
        assert reader.read(8) == 0xAB

    def test_read_partial_bits(self):
        reader = BitReader(bytes([0b1011_0000]))
        assert reader.read(3) == 0b101
        assert reader.read(1) == 0b1

    def test_position_advances(self):
        reader = BitReader(b"\xff\xff")
        reader.read(5)
        assert reader.position == 5
        assert reader.remaining_bits == 11

    def test_read_past_end_raises(self):
        reader = BitReader(b"\xff")
        with pytest.raises(CorruptStreamError):
            reader.read(9)

    def test_read_zero_bits(self):
        reader = BitReader(b"")
        assert reader.read(0) == 0

    def test_read_bytes_aligned_fast_path(self):
        reader = BitReader(b"hello world")
        assert reader.read_bytes(5) == b"hello"
        assert reader.read_bytes(6) == b" world"

    def test_read_bytes_unaligned(self):
        reader = BitReader(b"\x0f\xf0")
        reader.read(4)
        assert reader.read_bytes(1) == b"\xff"

    def test_read_bytes_past_end_raises(self):
        reader = BitReader(b"ab")
        with pytest.raises(CorruptStreamError):
            reader.read_bytes(3)

    def test_align_skips_to_boundary(self):
        reader = BitReader(b"\xff\x42")
        reader.read(3)
        reader.align()
        assert reader.position == 8
        assert reader.read(8) == 0x42

    def test_negative_width_rejected(self):
        reader = BitReader(b"\x00")
        with pytest.raises(ValueError):
            reader.read(-2)


class TestRoundTrip:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=(1 << 24) - 1),
                      st.integers(min_value=24, max_value=32)),
            min_size=0,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_sequences_round_trip(self, items):
        writer = BitWriter()
        for value, width in items:
            writer.write(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in items:
            assert reader.read(width) == value

    @given(st.binary(max_size=256))
    @settings(max_examples=60, deadline=None)
    def test_bytes_round_trip(self, payload):
        writer = BitWriter()
        writer.write_bytes(payload)
        reader = BitReader(writer.getvalue())
        assert reader.read_bytes(len(payload)) == payload

    @given(
        st.lists(
            st.integers(min_value=0, max_value=31), min_size=1, max_size=64
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_variable_width_codes_round_trip(self, widths):
        # Write each width's maximum value — the worst packing case.
        writer = BitWriter()
        for width in widths:
            writer.write((1 << width) - 1 if width else 0, width)
        reader = BitReader(writer.getvalue())
        for width in widths:
            expected = (1 << width) - 1 if width else 0
            assert reader.read(width) == expected


class TestUnpackCodes:
    """``unpack_codes`` is the fixed-width inverse of ``pack_codes``."""

    @pytest.mark.parametrize("width", range(1, 57))
    def test_pack_then_unpack_is_identity(self, width):
        rng = np.random.default_rng(width)
        top = (1 << width) - 1
        for count in (1, 2, 3, 7, 8, 9, 100):
            codes = rng.integers(0, top, size=count, dtype=np.uint64,
                                 endpoint=True)
            codes[0] = top  # all-ones code: the widest window
            packed = pack_codes(codes, np.full(count, width, np.uint64))
            unpacked = unpack_codes(packed, width, count)
            assert unpacked.dtype == np.uint64
            assert np.array_equal(unpacked, codes)
            reader = BitReader(packed)
            assert [reader.read(width) for _ in range(count)] == (
                codes.tolist()
            )

    def test_reads_only_the_requested_codes(self):
        packed = pack_codes(np.array([5, 6, 7], dtype=np.uint64),
                            np.full(3, 3, np.uint64))
        assert unpack_codes(packed + b"\xff" * 4, 3, 2).tolist() == [5, 6]

    def test_zero_width_and_zero_count(self):
        assert unpack_codes(b"", 0, 4).tolist() == [0, 0, 0, 0]
        assert unpack_codes(b"", 9, 0).tolist() == []

    def test_short_data_raises(self):
        with pytest.raises(CorruptStreamError):
            unpack_codes(b"\x00\x00", 9, 2)

    def test_width_past_window_rejected(self):
        with pytest.raises(ValueError):
            unpack_codes(b"\x00" * 16, 57, 1)
