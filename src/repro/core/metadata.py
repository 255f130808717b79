"""Recoil split metadata (paper §3.3, §4.1, Tables 1–2).

Each split entry carries everything one decoder thread needs to start
mid-stream:

- ``word_offset`` — the stream position of the split event's word; the
  thread's first renormalization read happens there, reading downward.
- per-lane ``lane_indices`` — the 1-based symbol index at which each
  interleaved lane initializes (the paper's "Symbol Indices" row of
  Table 2, recoverable from Symbol Group IDs).
- per-lane ``lane_states`` — the bounded post-renormalization states
  (< L, Lemma 3.1), stored in 16 bits each.

The *split index* ``S = max(lane_indices)`` is where the thread's walk
starts; the *sync-complete index* ``C = min(lane_indices)`` is where
all lanes are initialized.  The Synchronization Section is ``[C, S]``.

:class:`RecoilMetadata` stores entries as columns (DESIGN.md §5), so
every stage works on whole arrays; :class:`SplitEntry` is a row view.

Decoder-adaptive scalability (§3.3) is :meth:`RecoilMetadata.combine`:
dropping entries merges splits, and nothing else changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MetadataError


@dataclass(frozen=True)
class SplitEntry:
    """Metadata for one split point (one decoder thread boundary)."""

    word_offset: int
    lane_indices: np.ndarray  # int64, shape (K,), 1-based symbol indices
    lane_states: np.ndarray  # uint32, shape (K,); < 2**16 unless full

    def __post_init__(self) -> None:
        li = np.ascontiguousarray(self.lane_indices, dtype=np.int64)
        ls = np.ascontiguousarray(self.lane_states, dtype=np.uint32)
        if li.shape != ls.shape or li.ndim != 1:
            raise MetadataError("lane arrays must be 1-D and equal length")
        if np.any(li < 1):
            raise MetadataError("lane indices must be >= 1")
        object.__setattr__(self, "lane_indices", li)
        object.__setattr__(self, "lane_states", ls)

    @property
    def lanes(self) -> int:
        return len(self.lane_indices)

    @property
    def split_index(self) -> int:
        """``S``: the highest symbol index this entry initializes."""
        return int(self.lane_indices.max())

    @property
    def sync_complete_index(self) -> int:
        """``C``: index at which all lanes are initialized."""
        return int(self.lane_indices.min())

    @property
    def sync_section_length(self) -> int:
        """Symbols in the Synchronization Section ``[C, S]``."""
        return self.split_index - self.sync_complete_index + 1

    def group_ids(self, lanes: int) -> np.ndarray:
        """Symbol Group IDs (Table 2): 1-based group of each lane index.

        Lane ``j`` owns symbol indices congruent to ``j + 1`` mod ``K``,
        so ``index = (group - 1) * K + j + 1`` is exactly invertible.
        """
        return group_ids(self.lane_indices, lanes)

    @classmethod
    def from_group_ids(
        cls,
        word_offset: int,
        group_ids: np.ndarray,
        lane_states: np.ndarray,
    ) -> "SplitEntry":
        """Inverse of :meth:`group_ids`."""
        group_ids = np.asarray(group_ids, dtype=np.int64)
        lanes = len(group_ids)
        indices = (group_ids - 1) * lanes + np.arange(lanes) + 1
        return cls(word_offset, indices, np.asarray(lane_states))


def group_ids(lane_indices: np.ndarray, lanes: int) -> np.ndarray:
    """Symbol Group IDs of ``lane_indices`` (``(..., K)``), checking
    that every index sits on its own lane."""
    g, rem = np.divmod(lane_indices - np.arange(lanes) - 1, lanes)
    if np.any(rem != 0):
        raise MetadataError(
            "lane index does not belong to its lane (corrupt entry)"
        )
    return g + 1


class RecoilMetadata:
    """Split entries as columns plus stream geometry.

    ``num_threads = num_entries + 1``: the final segment (the back of
    the stream) is decoded from the container's final states and needs
    no entry.  :meth:`from_columns` is the constructor; the ``entries``
    argument takes :class:`SplitEntry` objects and converts them to
    columns once.  Either way the columns are private read-only copies
    (so :attr:`entries` views cannot alias writable state), validated.
    """

    def __init__(
        self, num_symbols: int, num_words: int, lanes: int, entries=()
    ) -> None:
        es = list(entries)
        self._set_columns(
            num_symbols, num_words, lanes, [e.word_offset for e in es],
            [e.lane_indices for e in es], [e.lane_states for e in es],
        )

    @classmethod
    def from_columns(
        cls, num_symbols, num_words, lanes, word_offset, lane_indices,
        lane_states,
    ) -> "RecoilMetadata":
        """Metadata from ``(E,)`` word offsets and ``(E, K)`` lane index
        and state columns (raises :class:`MetadataError` when they
        violate an invariant of :meth:`validate`)."""
        md = cls.__new__(cls)
        md._set_columns(num_symbols, num_words, lanes, word_offset,
                        lane_indices, lane_states)
        return md

    def _set_columns(self, num_symbols, num_words, lanes, *columns) -> None:
        self.num_symbols, self.num_words = num_symbols, num_words
        self.lanes = lanes
        E = len(columns[0])
        shapes = ((E,), (E, lanes), (E, lanes))
        dtypes = (np.int64, np.int64, np.uint32)
        try:  # a row of the wrong lane count cannot take the (E, K) shape
            cols = [
                np.array(c, dtype=dt).reshape(shape)
                for c, dt, shape in zip(columns, dtypes, shapes)
            ]
        except (ValueError, OverflowError) as exc:
            raise MetadataError(f"malformed metadata columns: {exc}") from exc
        for c in cols:
            c.setflags(write=False)
        self.word_offset, self.lane_indices, self.lane_states = cols
        self.validate()

    def validate(self) -> None:
        """Check the ordering/consistency invariants of the entries and
        cache the per-entry ``S``/``C`` columns."""
        li, off = self.lane_indices, self.word_offset
        S = li.max(axis=1) if len(li) else np.zeros(0, np.int64)
        C = li.min(axis=1) if len(li) else np.zeros(0, np.int64)
        prev_S = np.concatenate(([0], S))[:-1]

        def first(mask) -> int | None:
            return int(np.argmax(mask)) if mask.any() else None

        if (C < 1).any():
            raise MetadataError("lane indices must be >= 1")
        outside = (off < 0) | (off >= max(self.num_words, 1))
        if (k := first(outside)) is not None:
            raise MetadataError(
                f"entry {k} word offset {off[k]} outside stream of "
                f"{self.num_words} words"
            )
        if (np.diff(off) <= 0).any():
            raise MetadataError("entries must be offset-ordered")
        if (k := first(C <= prev_S)) is not None:
            raise MetadataError(
                f"entry {k}: sync section reaches into the previous "
                f"split (C={C[k]} <= S={prev_S[k]})"
            )
        if (k := first(S > self.num_symbols)) is not None:
            raise MetadataError(
                f"entry {k} split index {S[k]} beyond sequence of "
                f"{self.num_symbols} symbols"
            )
        self.split_index, self.sync_complete_index = S, C

    # ------------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return len(self.word_offset)

    @property
    def num_threads(self) -> int:
        return self.num_entries + 1

    @property
    def entries(self) -> list[SplitEntry]:
        """Per-entry views of the columns (read-only arrays)."""
        offsets = self.word_offset.tolist()
        return [
            SplitEntry(*row)
            for row in zip(offsets, self.lane_indices, self.lane_states)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecoilMetadata):
            return NotImplemented
        return (self.num_symbols, self.num_words, self.lanes) == (
            other.num_symbols, other.num_words, other.lanes
        ) and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("word_offset", "lane_indices", "lane_states")
        )

    def thread_plan(self) -> list[dict]:
        """Per-thread walk/commit ranges (see DESIGN.md §7).

        Thread ``t`` (0-based, ascending symbol ranges) walks
        ``[C_{t-1}, S_t]`` and commits ``[C_{t-1}, C_t - 1]``; the final
        thread walks ``[C_T, N]`` and commits the same.
        """
        N = self.num_symbols
        lo = [1] + self.sync_complete_index.tolist()
        hi = self.split_index.tolist() + [N]
        c_hi = (self.sync_complete_index - 1).tolist() + [N]
        entries = self.entries + [None]
        return [
            {"walk_hi": hi[t], "walk_lo": lo[t], "commit_hi": c_hi[t],
             "commit_lo": lo[t], "entry": entries[t]}
            for t in range(self.num_threads)
        ]

    def sync_overhead_symbols(self) -> int:
        """Total symbols decoded twice (all Synchronization Sections)."""
        return int((self.split_index - self.sync_complete_index + 1).sum())

    # ------------------------------------------------------------------
    # Decoder-adaptive scalability (§3.3): combining splits.
    # ------------------------------------------------------------------

    def combine(self, target_threads: int) -> "RecoilMetadata":
        """Shrink to at most ``target_threads`` by dropping entries.

        This is the server-side real-time operation: no re-encoding,
        no bitstream change — entries are subsampled so the surviving
        splits cover near-equal symbol counts (paper: "sending every
        other ``N/M``-th split metadata is good enough").  The kept
        entries are selected as whole rows of the columns.
        """
        if target_threads < 1:
            raise MetadataError(
                f"target_threads must be >= 1, got {target_threads}"
            )
        E = self.num_entries
        chosen: list[int] = list(range(E))
        if target_threads - 1 < E:
            # Pick entries whose split indices best match the ideal
            # equal-symbol boundaries k * N / target: the nearer of the
            # two neighbours not yet taken, else the next free entry.
            targets = np.arange(1, target_threads) * (
                self.num_symbols / target_threads
            )
            nearest = np.searchsorted(self.split_index, targets).tolist()
            splits = self.split_index.tolist()
            chosen, last = [], -1
            for tgt, k in zip(targets.tolist(), nearest):
                near = [c for c in (k - 1, k) if last < c < E]
                best = min(
                    near, key=lambda c: abs(splits[c] - tgt), default=last + 1
                )
                if best >= E:
                    break
                chosen.append(best)
                last = best
        rows = np.array(chosen, dtype=np.int64)
        return RecoilMetadata.from_columns(
            self.num_symbols, self.num_words, self.lanes,
            self.word_offset[rows], self.lane_indices[rows],
            self.lane_states[rows],
        )
