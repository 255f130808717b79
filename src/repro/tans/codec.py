"""Serial tANS encoder/decoder.

The encoder processes symbols in *reverse* so the decoder reads bits
forward and emits symbols forward — the layout multians' parallel
decoder needs (threads jump to forward bit offsets).

Encoding one symbol from state ``x`` in ``[T, 2T)``: emit the low
``nb`` bits of ``x`` where ``nb`` is minimal with
``x >> nb < 2 f_s``, then ``x = enc_next[offset_s + (x >> nb) - f_s]``.
Decoding is the table walk described in :mod:`repro.tans.table`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitio import BitWriter
from repro.errors import DecodeError, EncodeError
from repro.tans.fused import staged_single_decode
from repro.tans.table import TansTable


@dataclass
class TansEncodeResult:
    """A serial tANS bitstream."""

    payload: bytes  # packed bits, MSB-first, decoder reads forward
    bit_count: int
    initial_state: int  # decoder starts here (encoder's final state)
    num_symbols: int

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)


class TansEncoder:
    """Single-state tANS encoder."""

    def __init__(self, table: TansTable) -> None:
        self.table = table

    def encode(self, data: np.ndarray) -> TansEncodeResult:
        table = self.table
        freqs = table.freqs
        if np.any(freqs[np.asarray(data)] == 0):
            raise EncodeError("data contains zero-frequency symbols")
        f_list = freqs.tolist()
        two_f = (freqs * 2).tolist()
        offs = table.enc_sub_offset.tolist()
        nxt = table.enc_next.tolist()
        T = table.table_size

        x = T  # canonical start state
        # Collected (value, nb) pairs in encode order; the bitstream is
        # written in reverse so the decoder reads forward.
        vals: list[int] = []
        nbs: list[int] = []
        for s in reversed(np.asarray(data).tolist()):
            f = f_list[s]
            tf = two_f[s]
            nb = 0
            y = x
            while y >= tf:
                y >>= 1
                nb += 1
            if nb:
                vals.append(x & ((1 << nb) - 1))
                nbs.append(nb)
            x = nxt[offs[s] + y - f]
        w = BitWriter()
        # Bulk emission: the variable-width chunks, reversed to stream
        # order, packed in one vectorized pass.
        w.write_fields(vals[::-1], nbs[::-1])
        bit_count = len(w)
        return TansEncodeResult(
            payload=w.to_bytes(),
            bit_count=bit_count,
            initial_state=x,
            num_symbols=len(data),
        )


class TansDecoder:
    """Single-state serial tANS decoder (the reference for tests and
    the serial fallback of multians)."""

    def __init__(self, table: TansTable) -> None:
        self.table = table

    def decode(
        self, result: TansEncodeResult, engine: str = "fused"
    ) -> np.ndarray:
        """Decode the full stream, verifying terminal conditions.

        ``engine`` selects the staged-trajectory sweep (default) or
        the ``"reference"`` seed loop for differential testing.
        """
        if engine not in ("fused", "reference"):
            raise DecodeError(f"unknown engine {engine!r}")
        decode_from = (
            self.decode_from if engine == "fused"
            else self.decode_from_reference
        )
        out, state, bitpos = decode_from(
            np.frombuffer(result.payload, dtype=np.uint8),
            result.bit_count,
            result.initial_state,
            0,
            result.num_symbols,
        )
        if bitpos != result.bit_count:
            raise DecodeError(
                f"bitstream not fully consumed ({bitpos} of "
                f"{result.bit_count} bits)"
            )
        if state != self.table.table_size:
            raise DecodeError("decoder did not land on the start state")
        return out

    def decode_from(
        self,
        payload: np.ndarray,
        bit_count: int,
        state: int,
        bitpos: int,
        num_symbols: int,
    ) -> tuple[np.ndarray, int, int]:
        """Decode ``num_symbols`` starting at ``(state, bitpos)``.

        The multians building block: starting state may be a *guess*
        (self-synchronization makes the tail of the output correct).
        Returns ``(symbols, final_state, final_bitpos)``.

        Routed through the staged-trajectory sweep
        (:func:`repro.tans.fused.staged_single_decode`); the seed loop
        is kept as :meth:`decode_from_reference`.
        """
        return staged_single_decode(
            self.table, payload, bit_count, state, bitpos, num_symbols
        )

    def decode_from_reference(
        self,
        payload: np.ndarray,
        bit_count: int,
        state: int,
        bitpos: int,
        num_symbols: int,
    ) -> tuple[np.ndarray, int, int]:
        """The seed per-symbol loop, kept as the differential twin of
        :meth:`decode_from`."""
        table = self.table
        T = table.table_size
        sym_t = table.dec_sym.tolist()
        nb_t = table.dec_nb.tolist()
        base_t = table.dec_base.tolist()
        # Vectorized bit extraction: one 24-bit big-endian window per
        # byte offset, built in a single pass.  A read of nb <= 16 bits
        # at bit position p is then two integer ops against the window
        # starting at byte p >> 3 (7 skew bits + 16 payload bits fit).
        padded = np.zeros(len(payload) + 3, dtype=np.uint32)
        padded[: len(payload)] = payload
        win24 = (
            (padded[:-3] << np.uint32(16))
            | (padded[1:-2] << np.uint32(8))
            | padded[2:-1]
        ).tolist()
        out = np.empty(num_symbols, dtype=np.int64)
        x = int(state)
        p = int(bitpos)
        for i in range(num_symbols):
            e = x - T
            nb = nb_t[e]
            if nb:
                if p + nb > bit_count:
                    raise DecodeError("tANS bitstream exhausted")
                val = (win24[p >> 3] >> (24 - (p & 7) - nb)) & (
                    (1 << nb) - 1
                )
                p += nb
            else:
                val = 0
            out[i] = sym_t[e]
            x = base_t[e] + val
        return out, x, p
