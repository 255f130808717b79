"""Pinned shrink / split-selection output and columnar-metadata
properties.

The digests below were computed from the entry-list implementation of
split selection, serialization and combining, before the metadata
became columnar (DESIGN.md §5–§6); every container and every shrink
must stay byte-identical to them.  The hypothesis tests check the
columnar pack/gather against a per-entry reference writer, its
round trip, :meth:`RecoilMetadata.combine` against the entry-list
combining algorithm, and the batched split selector against the
per-boundary, per-lane backward scan.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitio import BitWriter, encode_uvarint
from repro.core import recoil_compress, recoil_shrink
from repro.core.metadata import RecoilMetadata
from repro.core.serialization import (
    parse_metadata,
    serialize_metadata,
    write_signed_series,
    write_unsigned_series,
)
from repro.core.splitter import SplitSelector
from repro.data import text_surrogate
from repro.rans.interleaved import InterleavedEncoder
from repro.rans.model import SymbolModel

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: sha256 of ``recoil_shrink(blob, cap)`` for every rANS golden case at
#: caps {1, 2, 3, splits}.
GOLDEN_SHRINKS = {
    "static_lanes1": {
        1: "67efc111180b78832cc51a076d80e1638a879808d425d68452b567f700cf4930",
        2: "cbaf1d836c2643741269b440c21c0736f6c704984a05ef9762248723698590c6",
        3: "d1320f58cccc1e9b88a13548fc3be8a886ffaeb087d2a622cb916984fb785d23",
        4: "5db46ef76529ed48156031ce9bb9160c6bf4bb48b17ca9b1e8cee2e0bd0113da",
    },
    "static_lanes4": {
        1: "d52c7c96350daf5d735bea378f4b8481025e7fd8f31b730bbd12d6a73cd079ee",
        2: "b8f1a021b2ec32559c0742b3623c3ecc479d1bc7553a77e7e70b3fa5984138ae",
        3: "49eccb71bb3776f34a103099b93b3a20fa42a114be991f045a1af6d5a1c5e8b2",
        8: "c16c9a7125c485b720b77bd7f13b37dc7ab05b4033058979dd252dcbc5b6df8b",
    },
    "static_lanes32": {
        1: "85dace5262828a306cb0993632785dfad756eafbb37fc2b6d6909642ca5fd316",
        2: "9b38e3505dbc14f6b080818233e2ce0b70d89d194660454faf1b6048e83f6cb9",
        3: "da011695a4c9033dbc3f0de07a714c3b22196dd8cc4dc23091f630fea3c75672",
        16: "1a942d2139e5c85e552e6f36d83240206bf06357b5f839525c6e02e51b2164b0",
    },
    "adaptive_lanes4": {
        1: "38b8fe4a76f2b5da5a678950b0d463fdf2c9166d7ca595cd9c5bdcf73d5a6f4c",
        2: "30947915013b4859df507ff5b168a9c4030da11c25943d1bf108ed7d41c04818",
        3: "dc9bc91e9c5a4877ec42fe47b0375dc47941d87e7d99e6e57f0b59c4f300f34f",
        8: "448b2edbb487b05cd87e0bc8a9e28adf1ddfb59891344d3b60c014e9b06e7370",
    },
    "adaptive_lanes32": {
        1: "f5eaf6b1e4de4e697670dc5cf4677dc0e6d512f78a79ef0490f6c70c245b0123",
        2: "9ce91cc6af61e6277d42a3483cf6b99c1a8b8a6347cbc25c1cc187dbfe70d6d0",
        3: "d44b30e445d0d620db67a3f19ceb114001ccf68bdebb451e99cfe9ffc8438339",
        16: "3b10ff59e14ad9b4616a6f66a2405f904af8b3793b9b5fb200ce04cf3f187b4d",
    },
    "static_n16": {
        1: "480d539892e69ca990a13daa39d262d173f7dc8056b4e72f40b24dd329dabc92",
        2: "f5993cffb99e5f22d38aac1593af2f2faee98e703019b2ea3994a15234f3cf63",
        3: "a621e17df30ec514d449ed7a36d81915f506a4beef95c26a4c953104a5aa3fdb",
        8: "c7342c16ee3e217cfa9875a831af537085ad36e984aaf913b11f5752c6cf750e",
    },
    "static_empty": {
        1: "e5e7aaad8bb5d76ee595df6b0014f3dec04bf7659e3e0c427390ecbddd3717cc",
        2: "e5e7aaad8bb5d76ee595df6b0014f3dec04bf7659e3e0c427390ecbddd3717cc",
        3: "e5e7aaad8bb5d76ee595df6b0014f3dec04bf7659e3e0c427390ecbddd3717cc",
    },
    "static_one": {
        1: "a5e1f8e952a5c43501ecae7a8012321db16836994bd8419261eecbdd8f28380a",
        2: "a5e1f8e952a5c43501ecae7a8012321db16836994bd8419261eecbdd8f28380a",
        3: "a5e1f8e952a5c43501ecae7a8012321db16836994bd8419261eecbdd8f28380a",
        4: "a5e1f8e952a5c43501ecae7a8012321db16836994bd8419261eecbdd8f28380a",
    },
}

#: ``text_surrogate(200_000, 5.29, seed=13)`` compressed at 256 splits
#: (key ``"compress"``) and shrunk to each capacity.
TEXT_DIGESTS = {
    "compress": "b46742e382293d5719ecbbdad30bedbde60668589b84013301535f1727fc56be",
    1: "c4bfc6c670fe9db568aad04401f13e28e38f5e47a8b39981433b2de0acf6ab27",
    16: "65167bb29db110ccb3ed1824017f9d89a4d033459cefbe53d67ec62aac823c29",
    64: "c872437a9e5ef402087e3da02ca606715afbb71de42c82d06e05b56dad5bc922",
    256: "b46742e382293d5719ecbbdad30bedbde60668589b84013301535f1727fc56be",
}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SHRINKS))
def test_golden_shrinks_pinned(name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.bin"), "rb") as fh:
        blob = fh.read()
    got = {cap: _sha(recoil_shrink(blob, cap)) for cap in GOLDEN_SHRINKS[name]}
    assert got == GOLDEN_SHRINKS[name]


def test_split_selection_and_shrinks_pinned():
    data = text_surrogate(200_000, target_entropy=5.29, seed=13)
    blob = recoil_compress(data, num_splits=256)
    got = {"compress": _sha(blob)}
    got.update({cap: _sha(recoil_shrink(blob, cap)) for cap in (1, 16, 64, 256)})
    assert got == TEXT_DIGESTS


# ---------------------------------------------------------------------------
# Columnar metadata properties.
# ---------------------------------------------------------------------------


@st.composite
def metadata(draw) -> RecoilMetadata:
    """Random valid metadata: offsets strictly increasing, every lane
    index on its own lane, sync sections ordered and disjoint."""
    K = draw(st.integers(1, 8))
    E = draw(st.integers(0, 24))
    big = draw(st.booleans())  # wide difference series
    offsets, indices, states = [], [], []
    prev_S = 0
    off = -1
    j = np.arange(K)
    for _ in range(E):
        lags = np.array(draw(st.lists(st.integers(0, 3), min_size=K, max_size=K)))
        # Smallest anchor group whose lowest lane index clears prev_S.
        g = int(((prev_S - j - 1) // K + lags + 2).max())
        g += draw(st.integers(0, 5_000 if big else 40))
        idx = (g - lags - 1) * K + j + 1
        off += draw(st.integers(1, 100_000 if big else 60))
        offsets.append(off)
        indices.append(idx)
        states.append(
            draw(st.lists(st.integers(0, (1 << 16) - 1), min_size=K, max_size=K))
        )
        prev_S = int(idx.max())
    return RecoilMetadata.from_columns(
        prev_S + draw(st.integers(0, 500)),
        off + 1 + draw(st.integers(0, 500)),
        K,
        offsets,
        np.array(indices, dtype=np.int64).reshape(E, K),
        np.array(states, dtype=np.int64).reshape(E, K),
    )


def _serialize_reference(md: RecoilMetadata) -> bytes:
    """The §4.3 section written one series and one entry at a time."""
    head = b"".join(
        encode_uvarint(v)
        for v in (md.lanes, md.num_symbols, md.num_words, md.num_entries)
    )
    if not md.num_entries:
        return head
    M = md.num_threads
    i = np.arange(1, md.num_entries + 1)
    groups = -(-md.num_symbols // md.lanes)
    w = BitWriter()
    entries = md.entries
    anchors = np.array([e.group_ids(md.lanes).max() for e in entries])
    write_signed_series(
        w, [e.word_offset for e in entries] - i * -(-md.num_words // M)
    )
    write_signed_series(w, anchors - i * -(-groups // M))
    for e, anchor in zip(entries, anchors):
        w.write_fields(e.lane_states, 16)
        write_unsigned_series(w, anchor - e.group_ids(md.lanes))
    return head + w.to_bytes()


def _combine_reference(md: RecoilMetadata, target: int) -> list[int]:
    """The entry-list combining algorithm: word offsets it keeps."""
    entries = md.entries
    if target - 1 >= len(entries):
        return [e.word_offset for e in entries]
    splits = np.array([e.split_index for e in entries])
    targets = np.arange(1, target) * (md.num_symbols / target)
    chosen: list[int] = []
    last = -1
    for tgt in targets:
        k = int(np.searchsorted(splits, tgt))
        best = None
        for cand in (k - 1, k):
            if cand <= last or cand < 0 or cand >= len(splits):
                continue
            if best is None or abs(splits[cand] - tgt) < abs(
                splits[best] - tgt
            ):
                best = cand
        if best is None:
            nxt = last + 1
            if nxt >= len(splits):
                break
            best = nxt
        chosen.append(best)
        last = best
    return [entries[i].word_offset for i in chosen]


@given(metadata())
@settings(max_examples=150, deadline=None)
def test_columnar_roundtrip_and_reference_bytes(md):
    blob = serialize_metadata(md)
    assert blob == _serialize_reference(md)
    out, consumed = parse_metadata(blob + b"PAYLOAD")
    assert consumed == len(blob)
    assert out == md


@given(metadata(), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_combine_matches_entry_list_algorithm(md, target):
    small = md.combine(target)
    assert small.word_offset.tolist() == _combine_reference(md, target)
    # Rows are taken whole: each kept entry is the original's.
    rows = np.searchsorted(md.word_offset, small.word_offset)
    assert np.array_equal(small.lane_indices, md.lane_indices[rows])
    assert np.array_equal(small.lane_states, md.lane_states[rows])


def _select_reference(events, K: int, N: int, threads: int, window: int):
    """Per-boundary split selection with a per-lane searchsorted scan:
    ``(word_offsets, lane_indices, lane_states)`` of the chosen entries."""
    ev_lane = np.asarray(events.lane)
    ev_sym = np.asarray(events.symbol_index, dtype=np.int64)
    positions = [np.flatnonzero(ev_lane == j) for j in range(K)]
    E = len(ev_sym)
    T = -(-N // threads)
    chosen = []
    prev_S = 0
    for t in range(1, threads):
        if threads == 1 or E == 0 or N <= K or t * T >= N:
            break
        lo = max(0, int(np.searchsorted(ev_sym - K, t * T)) - window // 2)
        best = None
        for c in range(lo, min(E, lo + window)):
            ids = []
            for pos in positions:
                k = int(np.searchsorted(pos, c, side="right")) - 1
                ids.append(int(pos[k]) if k >= 0 else -1)
            idx = [int(ev_sym[i]) - K for i in ids]
            if min(ids) < 0 or min(idx) < 1:
                continue
            S, C = max(idx), min(idx)
            if not (C > prev_S and S > prev_S and S < N):
                continue
            cost = abs(S - prev_S - T) + abs(S - prev_S - (S - C + 1) - T)
            if best is None or cost < best[0]:
                best = (cost, c, ids, idx, S)
        if best is not None:
            _, c, ids, idx, prev_S = best
            states = np.asarray(events.state_after)[ids].tolist()
            chosen.append((c, idx, states))
    return [list(col) for col in zip(*chosen)] or [[], [], []]


@given(
    st.integers(0, 2**16),
    st.sampled_from([1, 3, 8, 32]),
    st.integers(1, 3_000),
    st.integers(1, 90),
    st.sampled_from([2, 7, 48]),
)
@settings(max_examples=40, deadline=None)
def test_batched_selection_matches_reference(seed, K, n, threads, window):
    r = np.random.default_rng(seed)
    data = np.minimum(r.exponential(6.0, n), 63).astype(np.uint8)
    model = SymbolModel.from_counts(np.bincount(data, minlength=64) + 1, 10)
    enc = InterleavedEncoder(model, lanes=K).encode(data, record_events=True)
    md, _ = SplitSelector(enc.events, K, n, window=window).select(threads)
    offsets, indices, states = _select_reference(
        enc.events, K, n, threads, window
    )
    assert md.word_offset.tolist() == offsets
    assert md.lane_indices.tolist() == indices
    assert md.lane_states.tolist() == states
