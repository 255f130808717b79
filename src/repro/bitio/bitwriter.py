"""MSB-first bit writer.

Bits are accumulated into a growing byte buffer; the first bit written
lands in the most-significant bit of the first byte.  This matches the
layout in paper §4.3, where a 4-bit width header is followed by packed
fixed-width values (read back in the same order).

Bulk entry points (:meth:`BitWriter.write_bits` for arbitrarily wide
values, :meth:`BitWriter.write_fields` for arrays of fields of any mix
of widths) render whole byte runs at once instead of looping
bit-by-bit, so the serialization hot paths never pay per-bit Python
dispatch.
"""

from __future__ import annotations

import numpy as np


class BitWriter:
    """Accumulates bits MSB-first and renders them as ``bytes``.

    Example::

        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_bit(1)
        w.to_bytes()          # b'\\xb0'  (1011 0000)
    """

    __slots__ = ("_buf", "_acc", "_nbits")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # bit accumulator, < 2**8 once flushed
        self._nbits = 0  # bits currently held in _acc (0..7)

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._buf) + self._nbits

    @property
    def bit_length(self) -> int:
        """Alias for ``len(self)``."""
        return len(self)

    @property
    def byte_length(self) -> int:
        """Number of bytes ``to_bytes`` would return right now."""
        return len(self._buf) + (1 if self._nbits else 0)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._acc = (self._acc << 1) | bit
        self._nbits += 1
        if self._nbits == 8:
            self._buf.append(self._acc)
            self._acc = 0
            self._nbits = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value`` (MSB of the field first).

        ``value`` must be a non-negative integer < 2**width.  A width of
        zero is allowed and writes nothing (used for all-zero series).
        """
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        if width == 0:
            return
        # Render every complete byte in one int.to_bytes call (C-level
        # regardless of width) and keep only the remainder bits.
        acc = (self._acc << width) | value
        nbits = self._nbits + width
        rem = nbits & 7
        nbytes = nbits >> 3
        if nbytes:
            self._buf += (acc >> rem).to_bytes(nbytes, "big")
            acc &= (1 << rem) - 1
        self._acc = acc
        self._nbits = rem

    def write_fields(self, values, widths) -> None:
        """Append each ``values[i]`` as a ``widths[i]``-bit field.

        Same layout as :meth:`write_bits` per field (the inverse of
        :func:`repro.bitio.gather_bits`), widths in ``[0, 33]``, one
        vectorized pass: each field lands in the 40-bit window at its
        first byte, and since fields never share a bit, summing the
        windows' bytes per position ORs them together.
        """
        values, widths = (
            a.ravel()
            for a in np.broadcast_arrays(
                np.asarray(values, dtype=np.int64),
                np.asarray(widths, dtype=np.int64),
            )
        )
        if len(values) == 0:
            return
        if widths.min() < 0 or widths.max() > 33:
            raise ValueError("field widths must be in [0, 33]")
        if values.min() < 0 or np.any(values >> widths):
            raise ValueError("value does not fit its field width")
        # The pending partial byte is one more (leading) field.
        values = np.concatenate(([self._acc], values))
        widths = np.concatenate(([self._nbits], widths))
        ends = np.cumsum(widths)
        starts = ends - widths
        total = int(ends[-1])
        win = values << (40 - (starts & 7) - widths)
        shifts = np.arange(32, -8, -8, dtype=np.int64)
        parts = (win[:, None] >> shifts) & 0xFF
        where = (starts >> 3)[:, None] + np.arange(5)
        nbytes = (total + 7) >> 3
        out = np.bincount(
            where.ravel(), weights=parts.ravel(), minlength=nbytes + 5
        )[:nbytes].astype(np.uint8)
        rem = total & 7
        self._buf += out[: total >> 3].tobytes()
        self._acc = int(out[-1]) >> (8 - rem) if rem else 0
        self._nbits = rem

    def write_unary(self, value: int) -> None:
        """Append ``value`` one-bits followed by a terminating zero."""
        if value < 0:
            raise ValueError("unary value must be >= 0")
        # One bulk write: `value` ones then the terminating zero.
        self.write_bits((1 << (value + 1)) - 2, value + 1)

    def write_signed(self, value: int, width: int) -> None:
        """Append a sign bit (1 = negative) then ``width`` magnitude bits."""
        self.write_bit(1 if value < 0 else 0)
        self.write_bits(abs(value), width)

    def align_to_byte(self) -> None:
        """Zero-pad to the next byte boundary."""
        if self._nbits:
            self._acc <<= 8 - self._nbits
            self._buf.append(self._acc & 0xFF)
            self._acc = 0
            self._nbits = 0

    def to_bytes(self) -> bytes:
        """Render the written bits, zero-padding the final partial byte.

        The writer remains usable afterwards (rendering is
        non-destructive), but note that further writes after rendering a
        partial byte continue from the *unpadded* position.
        """
        if self._nbits:
            tail = (self._acc << (8 - self._nbits)) & 0xFF
            return bytes(self._buf) + bytes([tail])
        return bytes(self._buf)
