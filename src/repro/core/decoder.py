"""The Recoil 3-phase parallel decoder (paper §4.1).

Builds one :class:`~repro.parallel.simd.ThreadTask` per split segment
from the metadata's thread plan and executes them on the batched lane
engine.  The three phases of §4.1 map onto the task fields:

- **Synchronization Phase** (§4.1.1): the walk between the split index
  and the sync-complete index, where lanes activate one by one at
  their recorded renormalization points.  Output in this range is not
  committed (``commit_hi = C - 1``).
- **Decoding Phase** (§4.1.2): the committed stretch down to the
  previous split's boundary.
- **Cross-Boundary Decoding Phase** (§4.1.3): the walk continues past
  the previous split's position through *its* synchronization section,
  committing those symbols, and terminates at its sync-complete point.

Because all three phases are just index ranges of one uniform walk,
the engine needs no per-phase logic — only the commit mask changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metadata import RecoilMetadata
from repro.errors import DecodeError
from repro.parallel.simd import EngineStats, LaneEngine, ThreadTask
from repro.parallel.workload import WorkloadSummary, summarize_tasks
from repro.rans.adaptive import AdaptiveModelProvider, StaticModelProvider
from repro.rans.constants import DEFAULT_LANES
from repro.rans.model import SymbolModel


@dataclass
class RecoilDecodeResult:
    """Decoded output plus measured work (feeds Figure 7)."""

    symbols: np.ndarray
    engine_stats: EngineStats
    workload: WorkloadSummary


def build_thread_tasks(
    metadata: RecoilMetadata,
    num_words: int,
    final_states: np.ndarray,
) -> list[ThreadTask]:
    """The metadata's thread plan (DESIGN.md §7) as engine tasks, from
    the ``S``/``C`` columns; the final task decodes from the transmitted
    final states (no synchronization needed)."""
    md = metadata
    E, K, N = md.num_entries, md.lanes, md.num_symbols
    lo = [1] + md.sync_complete_index.tolist()
    hi = md.split_index.tolist() + [N]
    c_hi = (md.sync_complete_index - 1).tolist() + [N]
    starts = md.word_offset.tolist() + [num_words - 1]
    lanes = np.broadcast_to(np.arange(K), (E, K))
    acts = np.stack((md.lane_indices, lanes, md.lane_states), axis=-1)
    tasks = [
        ThreadTask(starts[t], hi[t], lo[t], c_hi[t], lo[t],
                   activations=acts[t], check_terminal=lo[t] == 1)
        for t in range(E)
    ]
    final = np.asarray(final_states, dtype=np.uint64)
    tasks.append(
        ThreadTask(starts[E], N, lo[E], N, lo[E], initial_states=final,
                   check_terminal=lo[E] == 1)
    )
    return tasks


class RecoilDecoder:
    """Massively parallel decoder for Recoil streams.

    A decoder instance owns one lane engine whose scratch buffers are
    reused across :meth:`decode` calls (DESIGN.md §9) — cheap repeated
    decodes, but an instance must not be shared between concurrently
    decoding threads; give each thread its own decoder.
    """

    def __init__(
        self,
        provider: AdaptiveModelProvider | SymbolModel,
        lanes: int = DEFAULT_LANES,
    ) -> None:
        if isinstance(provider, SymbolModel):
            provider = StaticModelProvider(provider)
        self.provider = provider
        self.lanes = lanes
        # One engine per kernel for the decoder's lifetime, so scratch
        # arenas are reused across decode calls (DESIGN.md §9).
        self._engines = {
            name: LaneEngine(provider, lanes, kernel=kernel)
            for name, kernel in (("compiled", "compiled"), ("fused", "numpy"))
        }

    def _out_dtype(self):
        return self.provider.out_dtype

    def decode(
        self,
        words: np.ndarray,
        final_states: np.ndarray,
        metadata: RecoilMetadata,
        max_threads: int | None = None,
        engine: str = "compiled",
    ) -> RecoilDecodeResult:
        """Decode using every split in ``metadata``.

        ``max_threads`` optionally combines splits first (client-side
        equivalent of the server's shrinking — useful when the decoder
        received more metadata than it has cores).  ``engine`` selects
        the compiled whole-walk kernel (default; DESIGN.md §19 — falls
        back to numpy without a toolchain), the numpy ``"fused"``
        wide-lane kernel, or the ``"reference"`` masked loop for
        differential testing.
        """
        if metadata.lanes != self.lanes:
            raise DecodeError(
                f"metadata is for {metadata.lanes}-way interleaving, "
                f"decoder configured for {self.lanes}"
            )
        if engine not in ("fused", "reference", "compiled"):
            raise DecodeError(f"unknown engine {engine!r}")
        if max_threads is not None:
            metadata = metadata.combine(max_threads)
        tasks = build_thread_tasks(metadata, len(words), final_states)
        out = np.empty(metadata.num_symbols, dtype=self._out_dtype())
        if engine == "reference":
            run = self._engines["fused"].run_reference
        else:
            run = self._engines[engine].run
        stats = run(words, tasks, out)
        return RecoilDecodeResult(
            symbols=out,
            engine_stats=stats,
            workload=summarize_tasks(tasks),
        )
