"""Tests for pooled decoding on real threads.

One parametrized suite covers both kernels behind
:func:`repro.parallel.executor.decode_with_pool` — bit-identical
output, stats coverage, and the edge cases (zero tasks, a single task,
more workers than tasks) must hold for the numpy and the compiled
kernel alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decoder import build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.errors import ParallelismError
from repro.parallel import compiled
from repro.parallel.executor import decode_with_pool

from conftest import needs_compiled

BACKENDS = [
    "thread",
    pytest.param("thread+compiled", marks=needs_compiled),
]


@pytest.fixture(scope="module")
def encoded(skewed_bytes, model11):
    return RecoilEncoder(model11).encode(skewed_bytes, num_threads=24)


@pytest.fixture(scope="module")
def tasks(encoded):
    return build_thread_tasks(
        encoded.metadata, len(encoded.words), encoded.final_states
    )


@pytest.fixture(scope="module")
def single_task(encoded):
    md = encoded.metadata.combine(1)
    return build_thread_tasks(md, len(encoded.words), encoded.final_states)


@pytest.mark.parametrize("backend", BACKENDS)
class TestPoolDecode:
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_roundtrip(
        self, encoded, tasks, provider11, skewed_bytes, workers, backend
    ):
        res = decode_with_pool(
            provider11, 32, encoded.words, tasks,
            encoded.num_symbols, np.uint8, workers, backend=backend,
        )
        assert np.array_equal(res.symbols, skewed_bytes)
        assert res.workers == min(workers, len(tasks))
        _, kernel = compiled.split_backend(backend)
        assert res.kernel == kernel

    def test_stats_cover_all_work(self, encoded, tasks, provider11, backend):
        res = decode_with_pool(
            provider11, 32, encoded.words, tasks,
            encoded.num_symbols, np.uint8, 4, backend=backend,
        )
        assert len(res.per_worker_stats) == res.workers
        assert res.total_symbols_decoded >= encoded.num_symbols

    def test_more_workers_than_tasks(self, encoded, tasks, provider11,
                                     skewed_bytes, backend):
        res = decode_with_pool(
            provider11, 32, encoded.words, tasks,
            encoded.num_symbols, np.uint8, 100, backend=backend,
        )
        assert res.workers == len(tasks)
        assert np.array_equal(res.symbols, skewed_bytes)

    def test_single_task(self, encoded, single_task, provider11,
                         skewed_bytes, backend):
        assert len(single_task) == 1
        res = decode_with_pool(
            provider11, 32, encoded.words, single_task,
            encoded.num_symbols, np.uint8, 4, backend=backend,
        )
        assert res.workers == 1
        assert np.array_equal(res.symbols, skewed_bytes)

    def test_zero_tasks(self, encoded, provider11, backend):
        res = decode_with_pool(
            provider11, 32, encoded.words, [], 0, np.uint8, 4,
            backend=backend,
        )
        assert res.workers == 0
        assert res.per_worker_stats == []
        assert res.symbols.shape == (0,)

    def test_zero_workers_rejected(self, encoded, tasks, provider11, backend):
        with pytest.raises(ParallelismError):
            decode_with_pool(
                provider11, 32, encoded.words, tasks,
                encoded.num_symbols, np.uint8, 0, backend=backend,
            )

    def test_negative_workers_rejected(self, encoded, tasks, provider11,
                                       backend):
        with pytest.raises(ParallelismError):
            decode_with_pool(
                provider11, 32, encoded.words, tasks,
                encoded.num_symbols, np.uint8, -3, backend=backend,
            )


class TestBackendSelection:
    @pytest.mark.parametrize(
        "backend", ["gpu", "process", "process+compiled"]
    )
    def test_unknown_backend_rejected(
        self, encoded, tasks, provider11, backend
    ):
        with pytest.raises(ParallelismError) as info:
            decode_with_pool(
                provider11, 32, encoded.words, tasks,
                encoded.num_symbols, np.uint8, 2, backend=backend,
            )
        # The message names every surviving choice.
        for choice in ("thread", "compiled", "thread+compiled"):
            assert repr(choice) in str(info.value)
