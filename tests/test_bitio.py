"""Unit + property tests for the bit I/O substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.bitio import (
    BitReader,
    BitWriter,
    decode_uvarint,
    decode_varint,
    encode_uvarint,
    encode_varint,
    gather_bits,
)
from repro.errors import ContainerError, DecodeError


class TestBitWriter:
    def test_empty(self):
        w = BitWriter()
        assert len(w) == 0
        assert w.to_bytes() == b""

    def test_single_bits_msb_first(self):
        w = BitWriter()
        for b in (1, 0, 1, 1):
            w.write_bit(b)
        assert w.to_bytes() == bytes([0b10110000])

    def test_write_bits_value(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bit(1)
        assert w.to_bytes() == bytes([0b10110000])

    def test_multibyte(self):
        w = BitWriter()
        w.write_bits(0xABC, 12)
        w.write_bits(0xDEF, 12)
        assert w.to_bytes() == bytes([0xAB, 0xCD, 0xEF])

    def test_zero_width_is_noop(self):
        w = BitWriter()
        w.write_bits(0, 0)
        assert len(w) == 0

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(4, 2)

    def test_negative_value_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(-1, 4)

    def test_bad_bit_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bit(2)

    def test_negative_width_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(0, -1)

    def test_align_to_byte(self):
        w = BitWriter()
        w.write_bits(0b1, 1)
        w.align_to_byte()
        w.write_bits(0xFF, 8)
        assert w.to_bytes() == bytes([0b10000000, 0xFF])

    def test_byte_length(self):
        w = BitWriter()
        assert w.byte_length == 0
        w.write_bit(1)
        assert w.byte_length == 1
        w.write_bits(0, 7)
        assert w.byte_length == 1
        w.write_bit(0)
        assert w.byte_length == 2

    def test_unary(self):
        w = BitWriter()
        w.write_unary(3)
        assert w.to_bytes() == bytes([0b11100000])

    def test_signed(self):
        w = BitWriter()
        w.write_signed(-5, 4)
        w.write_signed(5, 4)
        r = BitReader(w.to_bytes())
        assert r.read_signed(4) == -5
        assert r.read_signed(4) == 5


class TestBitReader:
    def test_roundtrip_simple(self):
        r = BitReader(bytes([0b10110000]))
        assert [r.read_bit() for _ in range(4)] == [1, 0, 1, 1]

    def test_read_bits(self):
        r = BitReader(bytes([0xAB, 0xCD, 0xEF]))
        assert r.read_bits(12) == 0xABC
        assert r.read_bits(12) == 0xDEF

    def test_exhaustion_raises(self):
        r = BitReader(b"\x00")
        r.read_bits(8)
        with pytest.raises(DecodeError):
            r.read_bit()

    def test_read_past_end_raises(self):
        r = BitReader(b"\x00")
        with pytest.raises(DecodeError):
            r.read_bits(9)

    def test_zero_width_read(self):
        r = BitReader(b"")
        assert r.read_bits(0) == 0

    def test_unary(self):
        r = BitReader(bytes([0b11100000]))
        assert r.read_unary() == 3

    def test_align(self):
        r = BitReader(bytes([0b10000000, 0xFF]))
        r.read_bit()
        r.align_to_byte()
        assert r.read_bits(8) == 0xFF

    def test_start_bit(self):
        r = BitReader(bytes([0xAB]), start_bit=4)
        assert r.read_bits(4) == 0xB

    def test_bad_start_bit(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00", start_bit=9)

    def test_bits_remaining(self):
        r = BitReader(b"\xff\xff")
        assert r.bits_remaining == 16
        r.read_bits(5)
        assert r.bits_remaining == 11


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**20 - 1),
                  st.integers(min_value=20, max_value=24)),
        max_size=50,
    )
)
def test_bitio_roundtrip_property(pairs):
    """Anything written field-by-field reads back identically."""
    w = BitWriter()
    for value, width in pairs:
        w.write_bits(value, width)
    r = BitReader(w.to_bytes())
    for value, width in pairs:
        assert r.read_bits(width) == value


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=30))
def test_signed_series_roundtrip_property(values):
    w = BitWriter()
    for v in values:
        w.write_signed(v, 41)
    r = BitReader(w.to_bytes())
    for v in values:
        assert r.read_signed(41) == v


@given(
    st.integers(min_value=0, max_value=7),
    st.lists(
        st.integers(min_value=0, max_value=33).flatmap(
            lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))
        ),
        max_size=60,
    ),
)
def test_write_fields_matches_write_bits(lead, pairs):
    """One vectorized pass lays out exactly the per-field writes, from
    any partial-byte starting position."""
    a, b = BitWriter(), BitWriter()
    for w in (a, b):
        w.write_bits(0b1010101 & ((1 << lead) - 1), lead)
    for value, width in pairs:
        a.write_bits(value, width)
    b.write_fields([v for v, _ in pairs], [w for _, w in pairs])
    assert (b.to_bytes(), len(b)) == (a.to_bytes(), len(a))
    a.write_bits(5, 3)
    b.write_bits(5, 3)
    assert b.to_bytes() == a.to_bytes()


def test_write_fields_rejects_misfits():
    with pytest.raises(ValueError):
        BitWriter().write_fields([4], [2])
    with pytest.raises(ValueError):
        BitWriter().write_fields([1], [34])


class TestGatherBits:
    def test_matches_bitreader(self):
        import numpy as np

        w = BitWriter()
        values = [0, 1, 2**16 - 1, 12345, 2**31 - 1, 7]
        widths = [1, 3, 16, 17, 32, 5]
        positions = []
        p = 0
        for v, width in zip(values, widths):
            positions.append(p)
            w.write_bits(v, width)
            p += width
        blob = w.to_bytes()
        got = gather_bits(blob, np.array(positions), np.array(widths))
        assert got.tolist() == values
        # Cross-check against sequential reads.
        r = BitReader(blob)
        assert [r.read_bits(width) for width in widths] == values

    def test_broadcasts_row_widths(self):
        import numpy as np

        blob = bytes(range(32))
        pos = np.arange(0, 64, 8).reshape(2, 4)
        out = gather_bits(blob, pos, np.array([[8], [4]]))
        assert out.shape == (2, 4)
        assert out[0].tolist() == [0, 1, 2, 3]
        assert out[1].tolist() == [0, 0, 0, 0]  # top nibbles of 4..7

    def test_out_of_range_rejected(self):
        import numpy as np

        with pytest.raises(DecodeError):
            gather_bits(b"\xff", np.array([4]), 8)

    def test_width_cap(self):
        import numpy as np

        with pytest.raises(ValueError):
            gather_bits(b"\xff" * 16, np.array([0]), 33)

    def test_empty_positions(self):
        import numpy as np

        assert gather_bits(b"", np.array([], dtype=np.int64), 8).size == 0


class TestVarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 300, 2**14, 2**21 - 1, 2**32, 2**63 - 1]
    )
    def test_uvarint_roundtrip(self, value):
        blob = encode_uvarint(value)
        out, pos = decode_uvarint(blob)
        assert out == value
        assert pos == len(blob)

    @pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 2**31, -(2**31)])
    def test_varint_roundtrip(self, value):
        blob = encode_varint(value)
        out, pos = decode_varint(blob)
        assert out == value
        assert pos == len(blob)

    def test_uvarint_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_truncated_raises(self):
        blob = encode_uvarint(2**20)
        with pytest.raises(ContainerError):
            decode_uvarint(blob[:-1])

    def test_single_byte_values_compact(self):
        assert len(encode_uvarint(127)) == 1
        assert len(encode_uvarint(128)) == 2

    def test_offset_decoding(self):
        blob = b"\xff" + encode_uvarint(5)
        value, pos = decode_uvarint(blob, offset=1)
        assert value == 5
        assert pos == len(blob)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_uvarint_property(self, value):
        out, _ = decode_uvarint(encode_uvarint(value))
        assert out == value

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_varint_property(self, value):
        out, _ = decode_varint(encode_varint(value))
        assert out == value
