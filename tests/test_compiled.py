"""Tests for the compiled kernel backend surface (DESIGN.md §19).

Covers the knob itself — ``split_backend`` parsing, ``backend_choices``
— the graceful numpy fallback when no toolchain exists (forced via
``REPRO_COMPILED_TOOLCHAIN=none``), and the warm-up contract: after
:func:`repro.parallel.compiled.warm_up` no compile may ever land
inside a timed region (asserted through the compile-event counter).
Bit-identity of the compiled loops themselves is asserted by the
backend-parametrized differential suites (``test_fused*``,
``test_golden``), not here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decoder import build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.errors import ParallelismError
from repro.parallel import compiled
from repro.parallel.executor import decode_with_pool
from repro.parallel.simd import LaneEngine

from conftest import needs_compiled


class TestSplitBackend:
    @pytest.mark.parametrize(
        "backend,pool,kernel",
        [
            ("thread", "thread", "numpy"),
            ("process", "process", "numpy"),
            ("fused", "fused", "numpy"),
            ("compiled", "thread", "compiled"),
            ("thread+compiled", "thread", "compiled"),
            ("process+compiled", "process", "compiled"),
            ("fused+compiled", "fused", "compiled"),
        ],
    )
    def test_parse(self, backend, pool, kernel):
        assert compiled.split_backend(backend) == (pool, kernel)

    def test_bare_compiled_uses_default_pool(self):
        assert compiled.split_backend(
            "compiled", default_pool="fused"
        ) == ("fused", "compiled")

    @pytest.mark.parametrize("bad", ["thread+gpu", "process+numba", "x+"])
    def test_unknown_suffix_rejected(self, bad):
        with pytest.raises(ValueError):
            compiled.split_backend(bad)

    def test_unknown_pool_passes_through(self):
        # Pool validation belongs to the caller (it owns the error
        # type); the parser only splits.
        assert compiled.split_backend("gpu") == ("gpu", "numpy")

    def test_backend_choices(self):
        assert compiled.backend_choices(("fused", "thread")) == (
            "fused",
            "thread",
            "compiled",
            "fused+compiled",
            "thread+compiled",
        )

    def test_effective_kernel_rejects_unknown(self):
        with pytest.raises(ValueError):
            compiled.effective_kernel("gpu")

    def test_effective_kernel_numpy_is_identity(self):
        assert compiled.effective_kernel("numpy") == "numpy"

    def test_executor_rejects_bad_suffix_as_parallelism_error(
        self, skewed_bytes, provider11
    ):
        with pytest.raises(ParallelismError):
            decode_with_pool(
                provider11, 32, np.zeros(4, np.uint16), [], 0,
                np.uint8, 2, backend="thread+gpu",
            )


@pytest.fixture
def forced_none(monkeypatch):
    """Force toolchain detection to ``none`` for one test, restoring
    real detection afterwards."""
    monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
    compiled.reset_for_tests()
    yield
    monkeypatch.delenv("REPRO_COMPILED_TOOLCHAIN", raising=False)
    compiled.reset_for_tests()


class TestFallbackWithoutToolchain:
    def test_detection_and_resolution(self, forced_none):
        assert compiled.toolchain() == "none"
        assert not compiled.kernel_available()
        assert compiled.effective_kernel("compiled") == "numpy"
        assert compiled.warm_up() == "numpy"

    def test_decode_still_works_on_numpy(
        self, forced_none, skewed_bytes, provider11
    ):
        """kernel="compiled" on a toolchain-less host silently runs
        the numpy loops — output identical, nothing raises."""
        data = skewed_bytes[:4_000]
        enc = RecoilEncoder(provider11).encode(data, num_threads=4)
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        out = np.empty(enc.num_symbols, dtype=np.uint8)
        LaneEngine(provider11, 32, kernel="compiled").run(
            enc.words, tasks, out
        )
        assert np.array_equal(out, data)

    def test_pool_reports_effective_numpy(
        self, forced_none, skewed_bytes, provider11
    ):
        data = skewed_bytes[:4_000]
        enc = RecoilEncoder(provider11).encode(data, num_threads=4)
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        res = decode_with_pool(
            provider11, 32, enc.words, tasks, enc.num_symbols,
            np.uint8, 2, backend="thread+compiled",
        )
        assert res.kernel == "numpy"
        assert np.array_equal(res.symbols, data)

    def test_service_reports_configured_vs_effective(self, forced_none):
        from repro.serve import RecoilService, ServiceConfig

        r = np.random.default_rng(77)
        data = np.minimum(
            np.floor(r.exponential(9.0, 5_000)), 255
        ).astype(np.uint8)
        cfg = ServiceConfig(decode_backend="compiled")
        with RecoilService(config=cfg) as svc:
            svc.put_asset("a", data)
            assert np.array_equal(svc.decompress("a", 8), data)
            snap = svc.metrics_snapshot()
            assert snap["resilience"]["kernel"] == {
                "configured": "compiled",
                "effective": "numpy",
            }

    def test_fallback_notice_logged_once(self, forced_none, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.compiled"):
            assert compiled.effective_kernel("compiled") == "numpy"
            assert compiled.effective_kernel("compiled") == "numpy"
        notices = [
            r for r in caplog.records if "falling back" in r.message
        ]
        assert len(notices) == 1


@needs_compiled
class TestWarmUpContract:
    def test_warm_up_idempotent_and_effective(self):
        assert compiled.warm_up() == "compiled"
        events = compiled.compile_events()
        assert compiled.warm_up() == "compiled"
        assert compiled.compile_events() == events

    def test_no_compile_inside_timed_region(
        self, skewed_bytes, provider11
    ):
        """The benchmark/serve contract: once warmed, decodes and
        encodes on the compiled kernel never trigger a compile (the
        event counter stays frozen across the timed work)."""
        assert compiled.warm_up() == "compiled"
        data = skewed_bytes[:8_000]
        events_before = compiled.compile_events()
        # -- timed region (as a benchmark would measure it) ----------
        enc = RecoilEncoder(provider11).encode(
            data, num_threads=8, kernel="compiled"
        )
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        res = decode_with_pool(
            provider11, 32, enc.words, tasks, enc.num_symbols,
            np.uint8, 2, backend="thread+compiled",
        )
        # -- end timed region ----------------------------------------
        assert np.array_equal(res.symbols, data)
        assert res.kernel == "compiled"
        assert compiled.compile_events() == events_before

    def test_service_startup_warms_up(self):
        """A compiled-kernel service warms up in __init__, so its
        first request never pays the build."""
        from repro.serve import RecoilService, ServiceConfig

        r = np.random.default_rng(78)
        data = np.minimum(
            np.floor(r.exponential(9.0, 5_000)), 255
        ).astype(np.uint8)
        cfg = ServiceConfig(decode_backend="fused+compiled")
        with RecoilService(config=cfg) as svc:
            events = compiled.compile_events()
            svc.put_asset("a", data)
            assert np.array_equal(svc.decompress("a", 8), data)
            assert compiled.compile_events() == events
            assert svc.decode_kernel == "compiled"
