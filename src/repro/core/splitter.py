"""Split-point selection (paper §4.1 backward scan + §4.2 heuristic).

Given the renormalization-event log of an encode pass, pick split
events so that per-thread workloads are balanced and Synchronization
Sections stay short, optimizing Definition 4.1's

    H(t, ts) = |t - T| + |t - ts - T|,      T = ceil(N / M)

where ``t`` counts the symbols between the previous and current split
points (including the sync section) and ``ts`` the sync section alone.

Terminology bridge to the implementation: an encoder event recorded at
A-index ``i`` (the symbol about to be encoded when the lane
renormalized) initializes its lane at metadata index ``m = i - K`` —
the lane reads the event's word and then decodes symbol ``m`` (see
DESIGN.md §7).  All indices below are metadata (``m``) indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metadata import RecoilMetadata
from repro.errors import MetadataError
from repro.rans.interleaved import RenormEvents

#: candidate windows per backward-scan block in :meth:`SplitSelector.select`.
_SCAN_ROWS = 256


@dataclass
class SplitterStats:
    """Diagnostics from a selection pass."""

    requested_threads: int
    achieved_threads: int
    total_sync_symbols: int
    mean_heuristic_cost: float


class SplitSelector:
    """Selects split events for a recorded encode pass.

    Parameters
    ----------
    events:
        The encoder's renormalization log (one entry per stream word).
    lanes:
        Interleave width ``K``.
    num_symbols:
        Sequence length ``N``.
    window:
        How many candidate events to examine around each ideal split
        position (the heuristic's search neighbourhood).
    """

    def __init__(
        self,
        events: RenormEvents,
        lanes: int,
        num_symbols: int,
        window: int = 48,
    ) -> None:
        self.events = events
        self.lanes = lanes
        self.num_symbols = num_symbols
        self.window = window
        # Per-lane event positions (indices into the event log), used
        # for the backward scan: one stable sort by lane keeps each
        # lane's events in log order.
        ev_lane = self._ev_lane = np.asarray(events.lane)
        order = np.argsort(ev_lane, kind="stable")
        bounds = np.searchsorted(ev_lane[order], np.arange(lanes + 1))
        self._lane_positions = [
            order[bounds[j] : bounds[j + 1]] for j in range(lanes)
        ]
        self._ev_sym = np.asarray(events.symbol_index, dtype=np.int64)

    # ------------------------------------------------------------------

    def _scan_windows(
        self, lo: np.ndarray, width: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward scan (§4.1) of candidates ``lo[r] + w``, ``w < width``.

        Each lane's most recent event at or before a candidate is its
        last event before ``lo[r]`` (one searchsorted per lane), then a
        running maximum over the window's own events.  Returns the
        ``(R, width, K)`` event ids (-1: none) and init indices
        ``m = A-index - K``, and the ``(R, width)`` mask of candidates
        whose every lane has ``m >= 1``.
        """
        K = self.lanes
        last = len(self._ev_sym) - 1
        cand = np.minimum(lo[:, None] + np.arange(width), last)
        ids = np.where(
            self._ev_lane[cand][..., None] == np.arange(K), cand[..., None], -1
        )
        for j, pos_j in enumerate(self._lane_positions):
            if len(pos_j):
                k = np.searchsorted(pos_j, lo) - 1
                prior = np.where(k >= 0, pos_j[k], -1)
                np.maximum(ids[:, 0, j], prior, out=ids[:, 0, j])
        np.maximum.accumulate(ids, axis=1, out=ids)
        lane_indices = np.where(ids >= 0, self._ev_sym[ids] - K, 0)
        valid = (lane_indices >= 1).all(axis=-1)
        return ids, lane_indices, valid

    # ------------------------------------------------------------------

    def select(self, num_threads: int) -> tuple[RecoilMetadata, SplitterStats]:
        """Choose up to ``num_threads - 1`` split entries.

        Walks the ideal boundaries left to right; at each, evaluates
        ``window`` nearby candidate events with Definition 4.1 and
        keeps the cheapest valid one.  Returns possibly fewer entries
        than requested when the stream is too short or events too
        sparse — the metadata then simply supports fewer threads.

        Every boundary's candidate window is scanned in one batched
        backward scan up front; only the argmin, which depends on the
        previous choice's split index, walks the boundaries in order.
        """
        if num_threads < 1:
            raise MetadataError(f"num_threads must be >= 1, got {num_threads}")
        N = self.num_symbols
        E = len(self.events)
        K = self.lanes
        if num_threads == 1 or E == 0 or N <= K:
            md = RecoilMetadata(N, E, K)
            return md, SplitterStats(num_threads, 1, 0, 0.0)

        T = -(-N // num_threads)  # ceil: expected symbols per split
        ideal = T * np.arange(1, num_threads, dtype=np.int64)
        ideal = ideal[ideal < N]
        # Metadata init index of each event (for searchsorted); events
        # are symbol-ordered so this array is strictly increasing.
        center = np.searchsorted(self._ev_sym - K, ideal)
        lo = np.maximum(0, center - self.window // 2)
        hi = np.minimum(E, lo + self.window)
        offsets = lo[:, None] + np.arange(self.window)
        valid = offsets < hi[:, None]
        S = np.empty_like(offsets)
        Cc = np.empty_like(offsets)
        # Scan in row blocks so the (rows, window, K) temporaries stay
        # small at thousands of splits.
        for r in range(0, len(lo), _SCAN_ROWS):
            block = slice(r, r + _SCAN_ROWS)
            _, lane_idx, ok = self._scan_windows(lo[block], self.window)
            valid[block] &= ok
            S[block] = lane_idx.max(axis=-1)
            Cc[block] = lane_idx.min(axis=-1)
        ts = S - Cc + 1

        chosen: list[int] = []
        costs: list[float] = []
        prev_S = 0
        never = np.iinfo(np.int64).max
        for t in range(len(ideal)):
            # Reject overlaps with the previous split and non-advancing
            # candidates.
            ok = valid[t] & (Cc[t] > prev_S) & (S[t] > prev_S) & (S[t] < N)
            if not ok.any():
                continue
            t_sym = S[t] - prev_S
            cost = np.abs(t_sym - T) + np.abs(t_sym - ts[t] - T)
            best = int(np.argmin(np.where(ok, cost, never)))
            chosen.append(int(offsets[t, best]))
            costs.append(float(cost[best]))
            prev_S = int(S[t, best])

        chosen = np.array(chosen, dtype=np.int64)
        ids, lane_idx, _ = self._scan_windows(chosen, 1)
        states = np.asarray(self.events.state_after)[ids[:, 0]]
        md = RecoilMetadata.from_columns(
            N, E, K, chosen, lane_idx[:, 0], states
        )
        stats = SplitterStats(
            requested_threads=num_threads,
            achieved_threads=md.num_threads,
            total_sync_symbols=md.sync_overhead_symbols(),
            mean_heuristic_cost=float(np.mean(costs)) if costs else 0.0,
        )
        return md, stats
