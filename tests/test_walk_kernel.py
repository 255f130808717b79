"""Differential tests for the compiled whole-walk decode kernel.

The C kernel (``recoil_rans_walk``, DESIGN.md §19) walks every task
from ``walk_hi`` to ``walk_lo`` in one call: activations, commit
ranges and the terminal drain included.  It must be a re-scheduling of
the numpy lockstep loop, so every case here asserts identical output
*and* identical :class:`EngineStats` — on geometries where the numpy
kernel's steady window is empty or tiny (serve-shaped shrinks, mixed
batches, adaptive models, a single lane), which is exactly where the
two implementations share the least code.

Also pinned here: the compiled kernel is the default on every surface
and resolves to numpy, observably, without a toolchain.
"""

from __future__ import annotations

import inspect
import os

import numpy as np
import pytest

from repro.core.api import RecoilCodec, recoil_shrink
from repro.core.container import parse_container
from repro.core.decoder import RecoilDecoder, build_thread_tasks
from repro.core.encoder import RecoilEncoder
from repro.errors import DecodeError
from repro.parallel import compiled, fused
from repro.parallel.buffers import ScratchArena
from repro.parallel.fused import (
    StreamSegment,
    fused_run,
    fused_run_multi,
    plan_tasks,
)
from repro.parallel.simd import LaneEngine, ThreadTask
from repro.rans.adaptive import IndexedModelProvider, StaticModelProvider
from repro.rans.model import SymbolModel

from conftest import needs_compiled
from golden_cases import rans_cases

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _stats(s):
    return (s.iterations, s.symbols_decoded, s.words_read,
            s.tasks, s.max_task_iterations)


def _exp(seed: int, n: int) -> np.ndarray:
    r = np.random.default_rng(seed)
    return np.minimum(np.floor(r.exponential(11.0, n)), 255).astype(
        np.uint8
    )


@pytest.fixture(scope="module")
def model() -> SymbolModel:
    """One shared static model covering every byte (batches need a
    shared provider)."""
    counts = np.bincount(_exp(7, 50_000), minlength=256) + 1
    return SymbolModel.from_counts(counts, 11)


def _asset(model, seed: int, n: int, splits: int = 64):
    """A served-shape asset: ``(data, master container)``."""
    data = _exp(seed, n)
    return data, RecoilCodec(model).compress(data, splits)


def _segment(blob: bytes, capacity: int) -> tuple[StreamSegment, object]:
    shrunk = recoil_shrink(blob, capacity)
    c = parse_container(shrunk)
    words = c.words(shrunk)
    tasks = build_thread_tasks(c.metadata, len(words), c.final_states)
    return StreamSegment(words, tasks, c.num_symbols), c


def _both(provider, lanes, words, tasks, n, dtype=np.uint8):
    """Run numpy and compiled ``fused_run``; return both results."""
    res = {}
    for kernel in ("numpy", "compiled"):
        out = np.zeros(n, dtype=dtype)
        stats = fused_run(
            provider, lanes, words, tasks, out, ScratchArena(), kernel=kernel
        )
        res[kernel] = (out, _stats(stats))
    return res


@needs_compiled
class TestWholeWalkDifferential:
    @pytest.mark.parametrize("capacity", [16, 64])
    def test_serve_shaped_asset(self, model, capacity):
        data, blob = _asset(model, 11, 20_000)
        seg, c = _segment(blob, capacity)
        res = _both(c.provider, c.lanes, seg.words, seg.tasks, len(data))
        assert np.array_equal(res["compiled"][0], data)
        assert np.array_equal(res["numpy"][0], data)
        assert res["compiled"][1] == res["numpy"][1]

    def test_multi_batch_unequal_task_lengths(self, model):
        """Segments of different sizes and capacities (so task lengths
        differ by orders of magnitude) fused into one run; a shared
        word buffer appears twice."""
        shapes = [(21, 20_000, 1), (22, 5_000, 64), (23, 12_000, 4),
                  (24, 800, 16)]
        assets = [_asset(model, s, n) for s, n, _ in shapes]
        segs = []
        for (data, blob), (_, _, cap) in zip(assets, shapes):
            segs.append(_segment(blob, cap)[0])
        segs.append(segs[1])  # same words object: deduped stream
        provider = StaticModelProvider(model)
        runs = {
            k: fused_run_multi(provider, 32, segs, ScratchArena(), kernel=k)
            for k in ("numpy", "compiled")
        }
        outs = [a[0] for a in assets] + [assets[1][0]]
        for k, run in runs.items():
            for got, want in zip(run.segment_outputs(), outs):
                assert np.array_equal(got, want), k
        assert _stats(runs["numpy"].stats) == _stats(runs["compiled"].stats)

    def test_prepacked_plan_matches_task_list(self, model):
        data, blob = _asset(model, 31, 9_000)
        seg, c = _segment(blob, 64)
        packed = StreamSegment(
            seg.words, seg.tasks, seg.num_symbols,
            plan=plan_tasks(seg.tasks, c.lanes),
        )
        a = fused_run_multi(c.provider, c.lanes, [seg, packed], ScratchArena())
        b = fused_run_multi(
            c.provider, c.lanes, [seg, packed], ScratchArena(), kernel="numpy"
        )
        assert np.array_equal(a.out, b.out)
        assert np.array_equal(a.segment_outputs()[1], data)
        assert _stats(a.stats) == _stats(b.stats)

    @pytest.mark.parametrize("threads", [1, 3, 16])
    def test_adaptive_model_ids(self, threads):
        payload = _exp(41, 4_000)
        sym = np.arange(256, dtype=np.float64)
        models = [
            SymbolModel.from_counts(np.exp(-sym / s) * 1_000 + 1, 10)
            for s in (4.0, 12.0, 40.0)
        ]
        provider = IndexedModelProvider(
            models, (np.arange(len(payload)) // 5) % 3
        )
        enc = RecoilEncoder(provider).encode(payload, num_threads=threads)
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        res = _both(provider, 32, enc.words, tasks, len(payload))
        assert np.array_equal(res["compiled"][0], payload)
        assert res["compiled"][1] == res["numpy"][1]

    @pytest.mark.parametrize("threads", [1, 4])
    def test_single_lane(self, model, threads):
        data = _exp(51, 3_000)
        provider = StaticModelProvider(model)
        enc = RecoilEncoder(provider, lanes=1).encode(data, threads)
        tasks = build_thread_tasks(
            enc.metadata, len(enc.words), enc.final_states
        )
        res = _both(provider, 1, enc.words, tasks, len(data))
        assert np.array_equal(res["compiled"][0], data)
        assert res["compiled"][1] == res["numpy"][1]

    @pytest.mark.parametrize(
        "case", [c for c in rans_cases()], ids=lambda c: c["name"]
    )
    def test_golden_corpus_stats(self, case):
        with open(os.path.join(GOLDEN_DIR, f"{case['name']}.bin"), "rb") as f:
            blob = f.read()
        parsed = parse_container(blob, provider=case["provider"])
        dec = RecoilDecoder(case["provider"], lanes=case["lanes"])
        runs = [
            dec.decode(parsed.words(blob), parsed.final_states,
                       parsed.metadata, max_threads=m, engine=e)
            for m in (None, 2)
            for e in ("fused", "compiled")
        ]
        for numpy_run, compiled_run in (runs[0:2], runs[2:4]):
            assert np.array_equal(numpy_run.symbols, compiled_run.symbols)
            assert _stats(numpy_run.engine_stats) == _stats(
                compiled_run.engine_stats
            )

    def test_one_c_call_and_no_lockstep_loop(self, model, monkeypatch):
        """With a toolchain a fused_run is exactly one C call: the
        numpy phase planner and steady loop never run."""
        data, blob = _asset(model, 61, 6_000)
        seg, c = _segment(blob, 16)
        calls = {"walk": 0}
        real = compiled.rans_walk

        def counting(*args, **kwargs):
            calls["walk"] += 1
            return real(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy lockstep path entered")

        monkeypatch.setattr(compiled, "rans_walk", counting)
        monkeypatch.setattr(fused, "_plan_phases", forbidden)
        monkeypatch.setattr(fused, "_numpy_steady", forbidden)
        out = np.empty(len(data), dtype=np.uint8)
        fused_run(c.provider, c.lanes, seg.words, seg.tasks, out,
                  ScratchArena())
        assert calls["walk"] == 1
        assert np.array_equal(out, data)


def _tiny_tasks():
    """One full-stream task over a 2k-symbol stream."""
    data = _exp(71, 2_000)
    provider = StaticModelProvider(
        SymbolModel.from_data(data, 11, alphabet_size=256)
    )
    enc = RecoilEncoder(provider).encode(data, num_threads=4)
    tasks = build_thread_tasks(enc.metadata, len(enc.words), enc.final_states)
    return provider, enc, tasks, data


@needs_compiled
class TestKernelChecks:
    """Everything that indexes memory is checked inside the C kernel,
    whatever the planner handed over (DESIGN.md §19 contract)."""

    def _run(self, provider, words, tasks, n):
        out = np.zeros(n, dtype=np.uint8)
        return fused_run(provider, 32, words, tasks, out, ScratchArena())

    def test_output_position_out_of_range(self):
        provider, enc, tasks, data = _tiny_tasks()
        bad = [ThreadTask(**{**t.__dict__, "global_offset": 10**6})
               for t in tasks]
        with pytest.raises(DecodeError, match="output position"):
            self._run(provider, enc.words, bad, len(data))

    def test_activation_lane_out_of_range(self):
        provider, enc, tasks, data = _tiny_tasks()
        t = next(t for t in tasks if len(t.activations))
        acts = np.array(t.activations)
        acts[0, 1] = 32
        t.activations = acts
        with pytest.raises(DecodeError, match="lane"):
            self._run(provider, enc.words, tasks, len(data))

    def test_start_position_beyond_stream(self):
        provider, enc, tasks, data = _tiny_tasks()
        tasks[0].start_pos = len(enc.words)
        with pytest.raises(DecodeError, match="start position"):
            self._run(provider, enc.words, tasks, len(data))

    @pytest.mark.parametrize("kernel", ["numpy", "compiled"])
    def test_read_below_stream_start(self, kernel):
        """No terminal drain to catch it afterwards: the read itself
        must be refused, on both kernels."""
        provider, enc, tasks, data = _tiny_tasks()
        for t in tasks:
            t.start_pos = min(t.start_pos, 3)
            t.check_terminal = False
        out = np.zeros(len(data), dtype=np.uint8)
        with pytest.raises(DecodeError, match="read out of range"):
            fused_run(provider, 32, enc.words, tasks, out, ScratchArena(),
                      kernel=kernel)

    def test_geometry_beyond_safe_range(self):
        provider, enc, tasks, data = _tiny_tasks()
        tasks[-1].commit_hi = 2**63 - 1
        with pytest.raises(DecodeError, match="supported range"):
            self._run(provider, enc.words, tasks, len(data))


class TestDefaults:
    """The compiled kernel is the default on every surface."""

    def test_signature_defaults(self):
        from repro.rans.interleaved import InterleavedEncoder
        from repro.tans.multians import MultiansCodec

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert default(RecoilDecoder.decode, "engine") == "compiled"
        assert default(RecoilEncoder.encode, "kernel") == "compiled"
        assert default(InterleavedEncoder.encode, "kernel") == "compiled"
        assert default(LaneEngine.__init__, "kernel") == "compiled"
        assert default(fused_run, "kernel") == "compiled"
        assert default(fused_run_multi, "kernel") == "compiled"
        assert default(MultiansCodec.decompress, "engine") == "compiled"

    def test_service_and_cli_defaults(self):
        from repro.cli import build_parser
        from repro.serve import ServiceConfig

        assert ServiceConfig().decode_backend == "fused+compiled"
        parser = build_parser()
        for argv in (["serve"], ["serve-bench"], ["load-bench"]):
            assert parser.parse_args(argv).backend == "fused+compiled"

    @needs_compiled
    def test_defaults_run_compiled(self, monkeypatch):
        from repro.serve import RecoilService

        provider, enc, tasks, data = _tiny_tasks()
        calls = []
        real = compiled.rans_walk
        monkeypatch.setattr(
            compiled, "rans_walk",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        out = RecoilDecoder(provider).decode(
            enc.words, enc.final_states, enc.metadata
        ).symbols
        assert np.array_equal(out, data) and len(calls) == 1
        with RecoilService() as svc:
            assert svc.decode_kernel == "compiled"
            svc.put_asset("a", data)
            before = len(calls)
            assert np.array_equal(svc.decompress("a", 4), data)
            assert len(calls) == before + 1

    def test_defaults_resolve_to_numpy_without_toolchain(self, monkeypatch):
        from repro.serve import RecoilService

        monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
        compiled.reset_for_tests()
        try:
            assert compiled.warm_up() == "numpy"
            provider, enc, tasks, data = _tiny_tasks()
            numpy_runs = []
            real = fused._numpy_walk
            monkeypatch.setattr(
                fused, "_numpy_walk",
                lambda *a, **k: numpy_runs.append(1) or real(*a, **k),
            )
            out = RecoilDecoder(provider).decode(
                enc.words, enc.final_states, enc.metadata
            ).symbols
            assert np.array_equal(out, data) and len(numpy_runs) == 1
            with RecoilService() as svc:
                assert svc.decode_kernel == "numpy"
                svc.put_asset("a", data)
                assert np.array_equal(svc.decompress("a", 4), data)
                kernel = svc.metrics_snapshot()["resilience"]["kernel"]
            assert kernel == {"configured": "compiled", "effective": "numpy"}
            assert len(numpy_runs) == 2
        finally:
            monkeypatch.delenv("REPRO_COMPILED_TOOLCHAIN")
            compiled.reset_for_tests()
