"""Efficient metadata storage (paper §4.3, Tables 1–2).

Only differences from expectations are stored:

- the ``i``-th split's bitstream offset is expected at ``i * ceil(B/M)``;
- the ``i``-th split's anchor (max Symbol Group ID) is expected at
  ``i * ceil(G/M)`` where ``G = ceil(N/K)`` is the total group count;
- per-lane Symbol Group IDs are stored as non-negative differences
  from the split's anchor (dropping the sign bit, since the anchor is
  the maximum);
- intermediate states are stored as-is in 16 bits each (Lemma 3.1).

Difference series are bit-packed: a width field holding ``width - 1``
followed by fixed-width values (paper's
``max floor(log2(v_i + 1)) - 1`` scheme, with one bit used even for
all-zero series).  Deviation from the paper, documented in DESIGN.md:
we use a 5-bit width field everywhere (the paper uses 4 bits for the
group-ID series), buying robustness for one extra bit per series.

Signed series carry one leading flag bit: when 0, no per-element sign
bits follow (the common case of all-non-negative offsets diffs).
"""

from __future__ import annotations

import numpy as np

from repro.bitio import (
    BitReader,
    BitWriter,
    decode_uvarint,
    encode_uvarint,
    gather_bits,
)
from repro.core.metadata import RecoilMetadata, group_ids
from repro.errors import DecodeError, MetadataError

_WIDTH_FIELD_BITS = 5
_MAX_WIDTH = 1 << _WIDTH_FIELD_BITS  # widths 1..32


def _series_width(values: np.ndarray) -> int:
    """Bits needed per magnitude (>= 1 even for all-zero series)."""
    if len(values) == 0:
        return 1
    top = int(np.abs(values).max())
    width = max(1, top.bit_length())
    if width > _MAX_WIDTH:
        raise MetadataError(f"series value too large for {_MAX_WIDTH} bits")
    return width


def _unsigned_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, widths)`` of one unsigned series per row of ``rows``
    ``(R, n)``: a width field, then fixed-width values."""
    rows = np.asarray(rows, dtype=np.int64)
    if np.any(rows < 0):
        raise MetadataError("unsigned series contains negative values")
    # frexp's exponent is the bit length (exact below 2**53).
    width = np.maximum(1, np.frexp(rows.max(axis=1, initial=0))[1])
    if width.max(initial=1) > _MAX_WIDTH:
        raise MetadataError(f"series value too large for {_MAX_WIDTH} bits")
    n = rows.shape[1]
    values = np.hstack((width[:, None] - 1, rows))
    widths = np.repeat(width[:, None], n + 1, axis=1)
    widths[:, 0] = _WIDTH_FIELD_BITS
    return values, widths


def _signed_fields(values) -> tuple[np.ndarray, np.ndarray]:
    """Width field + sign-presence flag + values; when a value is
    negative every element carries a sign bit ahead of its magnitude
    (one ``width + 1``-bit field)."""
    values = np.asarray(values, dtype=np.int64)
    width = _series_width(values)
    neg = values < 0
    has_neg = bool(neg.any())
    if has_neg:
        values = (neg.astype(np.int64) << width) | np.abs(values)
    return (
        np.concatenate(([width - 1, has_neg], values)),
        np.concatenate(
            ([_WIDTH_FIELD_BITS, 1], np.full(len(values), width + has_neg))
        ),
    )


def write_unsigned_series(writer: BitWriter, values: np.ndarray) -> None:
    """Width field + fixed-width non-negative values."""
    writer.write_fields(*_unsigned_rows(np.reshape(values, (1, -1))))


def read_unsigned_series(reader: BitReader, count: int) -> np.ndarray:
    width = reader.read_bits(_WIDTH_FIELD_BITS) + 1
    return reader.read_bits_array(count, width)


def write_signed_series(writer: BitWriter, values: np.ndarray) -> None:
    """Width field + sign-presence flag + values.

    When every value is non-negative the per-element sign bits are
    omitted entirely (flag bit 0).
    """
    writer.write_fields(*_signed_fields(values))


def read_signed_series(reader: BitReader, count: int) -> np.ndarray:
    width = reader.read_bits(_WIDTH_FIELD_BITS) + 1
    has_neg = reader.read_bit()
    if not has_neg:
        return reader.read_bits_array(count, width)
    combined = reader.read_bits_array(count, width + 1)
    mag = combined & ((1 << width) - 1)
    return np.where(combined >> width, -mag, mag)


# ---------------------------------------------------------------------------


def _expected_steps(
    num_symbols: int, num_words: int, lanes: int, num_entries: int
) -> tuple[int, int]:
    """Expected per-split offset and anchor steps (module docstring)."""
    M = num_entries + 1
    total_groups = -(-num_symbols // lanes)
    return -(-num_words // M), -(-total_groups // M)


def serialize_metadata(md: RecoilMetadata) -> bytes:
    """Render :class:`RecoilMetadata` into the compact §4.3 format.

    Every field of the section — both difference series and all entry
    records — is computed column-wise and packed by one
    :meth:`BitWriter.write_fields` call.
    """
    E, K = md.num_entries, md.lanes
    head = b"".join(
        encode_uvarint(v) for v in (K, md.num_symbols, md.num_words, E)
    )
    if E == 0:
        return head
    off_step, grp_step = _expected_steps(md.num_symbols, md.num_words, K, E)
    i = np.arange(1, E + 1, dtype=np.int64)
    grp = group_ids(md.lane_indices, K)
    anchors = grp.max(axis=1)
    off_vals, off_widths = _signed_fields(md.word_offset - i * off_step)
    grp_vals, grp_widths = _signed_fields(anchors - i * grp_step)
    states = md.lane_states
    if np.any(states >= 1 << 16):
        raise MetadataError(
            "entry state exceeds 16 bits — Lemma 3.1 violated?"
        )
    # Entry records: [K x 16-bit states] then the unsigned series of
    # group-ID diffs below the anchor, one row per entry.
    diff_vals, diff_widths = _unsigned_rows(anchors[:, None] - grp)
    rec_vals = np.hstack((states, diff_vals))
    rec_widths = np.hstack((np.full((E, K), 16), diff_widths))
    w = BitWriter()
    w.write_fields(
        np.concatenate((off_vals, grp_vals, rec_vals.ravel())),
        np.concatenate((off_widths, grp_widths, rec_widths.ravel())),
    )
    return head + w.to_bytes()


def parse_metadata(
    blob: bytes | memoryview, offset: int = 0
) -> tuple[RecoilMetadata, int]:
    """Inverse of :func:`serialize_metadata`.

    Returns ``(metadata, next_offset)`` where ``next_offset`` points
    just past the metadata section (byte-aligned).  ``blob`` is read
    in place; only the section's own bytes are touched.  Corrupt input
    raises :class:`MetadataError` (or :class:`ContainerError` from a
    truncated header varint).
    """
    lanes, pos = decode_uvarint(blob, offset)
    num_symbols, pos = decode_uvarint(blob, pos)
    num_words, pos = decode_uvarint(blob, pos)
    num_entries, pos = decode_uvarint(blob, pos)
    if lanes < 1:
        raise MetadataError(f"metadata lane count {lanes} must be >= 1")
    E, K = num_entries, lanes
    if E == 0:
        return RecoilMetadata(num_symbols, num_words, lanes), pos
    # Every entry consumes at least one bit of the section; a count
    # beyond that is a corrupt length field, not a real container —
    # refuse before sizing arrays (or looping) on it.
    if E > 8 * max(len(blob) - pos, 0):
        raise MetadataError(
            f"implausible metadata entry count {E} for "
            f"{len(blob) - pos} remaining bytes"
        )
    if max(num_symbols, num_words, K) >> 62:
        raise MetadataError("implausible metadata stream geometry")
    off_step, grp_step = _expected_steps(num_symbols, num_words, K, E)

    body = memoryview(blob)[pos:]
    # The two difference series take at most 2 x (6 + 33 E) bits.
    r = BitReader(body[: (12 + 66 * E + 7) // 8])
    try:
        off_diffs = read_signed_series(r, E)
        grp_diffs = read_signed_series(r, E)
    except DecodeError as exc:
        raise MetadataError(f"metadata truncated: {exc}") from exc
    i = np.arange(1, E + 1, dtype=np.int64)

    # Entry records are [K x 16-bit states][5-bit width field]
    # [K x width-bit diffs].  Only the 5-bit width fields chain record
    # offsets, so a scalar scan reads those; one gather then reads
    # every record's states and diffs.
    total_bits = 8 * len(body)
    starts = []
    widths = []
    b = r.bit_position
    states_bits = 16 * K
    for _ in range(E):
        wf = b + states_bits
        if wf + _WIDTH_FIELD_BITS > total_bits:
            raise MetadataError("metadata truncated inside entry records")
        byte = wf >> 3
        pair = body[byte] << 8
        if byte + 1 < len(body):
            pair |= body[byte + 1]
        width = ((pair >> (11 - (wf & 7))) & 31) + 1
        starts.append(b)
        widths.append(width)
        b = wf + _WIDTH_FIELD_BITS + width * K
    if b > total_bits:
        raise MetadataError("metadata truncated inside entry records")

    consumed = (b + 7) // 8
    section = np.frombuffer(body, dtype=np.uint8, count=consumed)
    starts = np.array(starts, dtype=np.int64)[:, None]
    widths = np.array(widths, dtype=np.int64)[:, None]
    j = np.arange(K, dtype=np.int64)
    diff_base = starts + states_bits + _WIDTH_FIELD_BITS
    fields = gather_bits(
        section,
        np.hstack((starts + 16 * j, diff_base + widths * j)),
        np.hstack((np.full((E, K), 16), np.repeat(widths, K, axis=1))),
    )
    anchors = grp_diffs + i * grp_step
    indices = (anchors[:, None] - fields[:, K:] - 1) * K + j + 1
    md = RecoilMetadata.from_columns(
        num_symbols,
        num_words,
        K,
        off_diffs + i * off_step,
        indices,
        fields[:, :K],
    )
    return md, pos + consumed


def metadata_size_bytes(md: RecoilMetadata) -> int:
    """Serialized size, for compression-rate accounting."""
    return len(serialize_metadata(md))
