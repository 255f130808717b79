"""``codec_offline``: in-process encode / shrink / decode, no server.

Each round generates two fresh seeded assets of :data:`SYMBOLS`
symbols -- ``text_surrogate`` at 5.29 bits/byte (enwik8-like) and
``exponential_bytes`` at lambda=500 (about 0.9 bits/byte) -- compresses
each once at :data:`SPLITS` splits, then shrinks it to every capacity
in :data:`CAPS`, decompresses, and compares with the input.  One
``recoil_shrink`` + ``recoil_decompress`` pair is one "request".

Every timed call is bracketed by :class:`common.HostSpeed` bursts and
divided by the slowdown of the burst before it (raw times when the
bursts show the program moving the probe); each request shape keeps
its median round.

``setup_s`` is the median, over :data:`SETUP_REPEATS` fresh
interpreters, of the time from launching the interpreter until its
first (untimed, :data:`WARMUP_SYMBOLS`-symbol) warm-up round is done.

With ``--trace 1`` half the time runs untraced and half with
:class:`common.SpanLog` wrappers around the codec's layer entry points.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from common import (
    HostSpeed,
    SpanLog,
    median,
    percentile,
    self_times,
    shrink_by_cap,
    summarize_attribution,
    vm_hwm_mib,
)
from run import HERE, ROOT, SRC, emit, provenance

if SRC not in sys.path:  # run as a setup probe: ``offline.py --warm SEED``
    sys.path.insert(0, SRC)

import repro.core.api as api  # noqa: E402
import repro.core.container as container
from repro.core import recoil_compress, recoil_decompress, recoil_shrink
from repro.core.decoder import RecoilDecoder
from repro.core.encoder import RecoilEncoder
from repro.data import exponential_bytes, text_surrogate

SYMBOLS = 2_000_000
WARMUP_SYMBOLS = 100_000
SPLITS = 256
CAPS = (1, 4, 16, 64, 256)
SETUP_REPEATS = 5


def assets(n: int, seed: int, round_no: int):
    base = seed * 1000 + round_no * 2
    return (
        ("text_surrogate", text_surrogate(n, target_entropy=5.29, seed=base)),
        ("exponential_bytes", exponential_bytes(n, lam=500.0, seed=base + 1)),
    )


def one_round(n: int, seed: int, round_no: int, log: dict, speed=None) -> bool:
    """Compress, shrink to every capacity, decompress, compare.

    Appends timings to ``log``; returns whether every round trip
    reproduced its input.  With ``speed`` (a :class:`common.HostSpeed`)
    bursts bracket every timed call, and each call records ``f``, the
    slowdown of the burst before it.
    """
    ok = True

    def before():
        return speed.before() if speed is not None else 1.0

    def after():
        if speed is not None:
            speed.after()

    for kind, data in assets(n, seed, round_no):
        f = before()
        t0 = time.perf_counter()
        blob = recoil_compress(data, num_splits=SPLITS)
        t1 = time.perf_counter()
        after()
        log["encode"].append(
            {"kind": kind, "symbols": data.size, "encode_s": t1 - t0, "f": f}
        )
        for cap in CAPS:
            f = before()
            t0 = time.perf_counter()
            small = recoil_shrink(blob, cap)
            t1 = time.perf_counter()
            out = recoil_decompress(small)
            t2 = time.perf_counter()
            after()
            good = out.dtype == data.dtype and np.array_equal(out, data)
            verify_s = time.perf_counter() - t2
            ok &= bool(good)
            log["requests"].append(
                {
                    "kind": kind,
                    "cap": cap,
                    "symbols": data.size,
                    "bytes": len(small),
                    "shrink_s": t1 - t0,
                    "decode_s": t2 - t1,
                    "t0": t0,
                    "t1": t2,
                    "verify_s": verify_s,
                    "ok": bool(good),
                    "f": f,
                }
            )
    return ok


def new_log() -> dict:
    return {"encode": [], "requests": []}


def measure(seed: int, seconds: float, speed=None):
    """Rounds until ``seconds`` would be exceeded (at least one)."""
    log = new_log()
    ok = True
    t_start = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds == 0 or time.perf_counter() - t_start + last <= seconds:
        t0 = time.perf_counter()
        ok &= one_round(SYMBOLS, seed, rounds, log, speed)
        last = time.perf_counter() - t0
        rounds += 1
    log["wall_s"] = time.perf_counter() - t_start
    log["rounds"] = rounds
    return ok, log


def setup_probe(seed: int) -> float:
    """Launch a fresh interpreter that imports the codec and runs one
    warm-up round; returns launch-to-warm seconds."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "offline.py"), "--warm", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed: {out.stderr[-2000:]}")
    return float(out.stdout.strip().splitlines()[-1]) - t0


def end_to_end(log: dict, setups, normalize: bool = True) -> dict:
    """End-to-end metrics.  Each timed call is divided by its host
    slowdown ``f`` (unless ``normalize`` is False), and each request
    shape (asset kind, capacity) keeps its median over the rounds."""

    def norm(op, key):
        return op[key] / (op["f"] if normalize else 1.0)

    reqs = log["requests"]
    by_shape: dict = {}
    for r in reqs:
        by_shape.setdefault((r["kind"], r["cap"]), []).append(r)
    lat = {k: median([norm(r, "shrink_s") + norm(r, "decode_s") for r in rs])
           for k, rs in by_shape.items()}
    dec = {k: median([norm(r, "decode_s") for r in rs]) for k, rs in by_shape.items()}
    enc: dict = {}
    for e in log["encode"]:
        enc.setdefault(e["kind"], []).append(e)
    enc_s = sum(median([norm(e, "encode_s") for e in es]) for es in enc.values())
    enc_syms = sum(es[0]["symbols"] for es in enc.values())

    def decode_rate(cap):
        keys = [k for k in dec if k[1] == cap]
        return sum(by_shape[k][0]["symbols"] for k in keys) / sum(dec[k] for k in keys) / 1e6

    lat_ms = [v * 1e3 for v in lat.values()]
    # Interpreter start and imports do not track the probe loop, so
    # setup time stays raw.
    setup = median(setups)
    return {
        "setup_s": (setup, "s"),
        "encode_msym_s": (enc_syms / enc_s / 1e6, "Msym/s"),
        "decode_narrow_msym_s": (decode_rate(CAPS[0]), "Msym/s"),
        "decode_wide_msym_s": (decode_rate(SPLITS), "Msym/s"),
        "wire_bits_per_sym": (
            8 * sum(r["bytes"] for r in reqs) / sum(r["symbols"] for r in reqs),
            "bits/sym",
        ),
        "p50_ms": (median(lat_ms), "ms"),
        "capacity_rps": (len(lat_ms) / (sum(lat_ms) / 1e3), "req/s"),
        "ok_ratio": (sum(r["ok"] for r in reqs) / len(reqs), "ratio"),
        "server_rss_mb": (vm_hwm_mib(), "MiB"),
    }


def install_spans(log: SpanLog) -> None:
    """Wrap the codec's layer entry points where their callers look
    them up: ``recoil_decompress`` -> ``parse_container`` and
    ``RecoilDecoder.decode``; ``recoil_shrink`` -> ``shrink_container``
    -> ``parse_container``; ``recoil_compress`` -> ``RecoilEncoder.encode``."""

    def on_decode(args, kwargs, result):
        if result is None:
            return {}
        st = result.engine_stats
        return {
            "symbols": int(result.symbols.size),
            "decoded": st.symbols_decoded,
            "lane_utilization": st.lane_utilization,
        }

    def on_encode(args, kwargs, result):
        return {"symbols": int(np.asarray(args[1]).size)}

    def on_serialize(args, kwargs, result):
        return {"bytes": len(result)} if result is not None else {}

    log.wrap(api, "parse_container", "core.parse")
    log.wrap(container, "parse_container", "core.parse")
    # shrink_container serializes the master's metadata, then the
    # combined one: the second child span carries the shipped size.
    log.wrap(container, "serialize_metadata", "core.serialize", on_serialize)
    log.wrap(api, "shrink_container", "core.shrink",
             lambda a, k, r: {"cap": a[1]})
    log.wrap(RecoilDecoder, "decode", "parallel.decode", on_decode)
    log.wrap(RecoilEncoder, "encode", "parallel.encode", on_encode)


def per_layer(untraced: dict, traced: dict, spans) -> tuple[dict, dict]:
    dec = [s for s in spans if s[2] == "parallel.decode"]
    enc = [s for s in spans if s[2] == "parallel.encode"]
    shrink = [s for s in spans if s[2] == "core.shrink"]
    parse = [s for s in spans if s[2] == "core.parse"]
    md_of = {}  # shrink span id -> bytes of the last metadata it serialized
    for s in spans:
        if s[2] == "core.serialize":
            md_of[s[1]] = s[6]["bytes"]
    dec_time = sum(s[4] - s[3] for s in dec)
    dec_syms = sum(s[6]["symbols"] for s in dec)
    decoded = sum(s[6]["decoded"] for s in dec)
    lane = sum(s[6]["lane_utilization"] * (s[4] - s[3]) for s in dec) / dec_time
    enc_rate = sum(s[6]["symbols"] for s in enc) / sum(s[4] - s[3] for s in enc) / 1e6
    shrink_ms = [(s[4] - s[3]) * 1e3 for s in shrink]
    parse_ms = [(s[4] - s[3]) * 1e3 for s in parse]
    md = [md_of[s[0]] for s in shrink]
    reqs = traced["requests"]
    wall = traced["wall_s"]

    def lat_ms(r):
        return (r["shrink_s"] + r["decode_s"]) * 1e3

    # Both halves replay the same seeded rounds, so requests pair up
    # one to one; the overhead is the median paired difference.
    p50_untraced = median([lat_ms(r) for r in untraced["requests"]])
    p50_traced = median([lat_ms(r) for r in reqs])
    overhead = median(
        [lat_ms(b) - lat_ms(a) for a, b in zip(untraced["requests"], reqs)]
    )
    attr = attribute(reqs, spans, p50_traced)
    share = {k: v / attr["band_mean_total_ms"] for k, v in attr["layer_self_ms"].items()}
    metrics = {
        "parallel.decode_msym_s": (dec_syms / dec_time / 1e6, "Msym/s"),
        "parallel.commit_ratio": (dec_syms / decoded, "ratio"),
        "parallel.lane_utilization": (lane, "sym/task-iter"),
        "parallel.encode_msym_s": (enc_rate, "Msym/s"),
        "core.shrink_p50_ms": (median(shrink_ms), "ms"),
        "core.shrink_p99_ms": (percentile(shrink_ms, 99.0), "ms"),
        "core.parse_p50_ms": (median(parse_ms), "ms"),
        "core.metadata_bytes": (sum(md) / len(md), "bytes"),
        # No shrink cache, store, batcher, network or client here: one
        # request per decode call, every shrink computed.
        "store.shrink_hit_ratio": (0.0, "ratio"),
        "service.batch_requests_mean": (1.0, "count"),
        "service.kernel_busy_ratio": (dec_time / wall, "ratio"),
        "net.bytes_per_req": (sum(r["bytes"] for r in reqs) / len(reqs), "bytes"),
        "net.transport_errors": (0, "count"),
        "net.retry_afters": (0, "count"),
        "client.backlog": (0, "count"),
        "client.verify_p50_ms": (median([r["verify_s"] * 1e3 for r in reqs]), "ms"),
        "served_fraction": (0.0, "ratio"),
        "trace.overhead_p50_ms": (overhead, "ms"),
    }
    for layer in ("client", "net", "service", "store", "core", "parallel", "gap", "residue"):
        metrics[f"attr.{layer}_share"] = (share.get(layer, 0.0), "ratio")
    md_by_cap = {s[6]["cap"]: md_of[s[0]] for s in shrink}
    detail = {
        "attribution": attr,
        "untraced_p50_ms": p50_untraced,
        "traced_p50_ms": p50_traced,
        "core.metadata_bytes_by_cap": md_by_cap,
        "core.shrink_ms_by_cap": shrink_by_cap(shrink),
        "decode_msym_s_by_cap": {
            cap: sum(s[6]["symbols"] for s, r in zip(dec, reqs) if r["cap"] == cap)
            / sum(s[4] - s[3] for s, r in zip(dec, reqs) if r["cap"] == cap)
            / 1e6
            for cap in CAPS
        },
    }
    return metrics, detail


def attribute(reqs, spans, p50_ms: float) -> dict:
    """Self time per layer for the requests around the median.

    A request is one shrink + decompress; ``core`` is parse and shrink
    self time, ``parallel`` the decoder, ``residue`` the rest of the
    two API calls."""
    selft = self_times(spans)
    rows = []
    for r in reqs:
        inside = [s for s in spans if r["t0"] <= s[3] and s[4] <= r["t1"]]
        core = sum(selft[s[0]] for s in inside if s[2].startswith("core."))
        par = sum(selft[s[0]] for s in inside if s[2].startswith("parallel."))
        total = r["t1"] - r["t0"]
        rows.append({"total": total, "core": core, "parallel": par,
                     "residue": total - core - par})
    return summarize_attribution(rows, ("core", "parallel"), ("residue",), p50_ms)


def run(args) -> int:
    speed = HostSpeed()
    prov = provenance(
        args, codec="in-process", splits=SPLITS, caps=CAPS, symbols_per_asset=SYMBOLS
    )
    if not args.trace:
        setups = [setup_probe(args.seed) for _ in range(SETUP_REPEATS)]
        # This interpreter's own warm-up (untimed) before measuring.
        one_round(WARMUP_SYMBOLS, args.seed, -1, new_log())
        ok, log = measure(args.seed, args.seconds, speed)
        metrics = end_to_end(log, setups, normalize=not speed.influenced())
        report = {
            "provenance": prov,
            "host_speed": speed.summary(),
            "setup_s_samples": setups,
            "rounds": log["rounds"],
            "requests": len(log["requests"]),
            "end_to_end": {k: v[0] for k, v in metrics.items()},
            "end_to_end_raw": {
                k: v[0] for k, v in end_to_end(log, setups, normalize=False).items()
            },
        }
        reqs = log["requests"]
    else:
        one_round(WARMUP_SYMBOLS, args.seed, -1, new_log())
        ok_a, untraced = measure(args.seed, args.seconds / 2)
        spans = SpanLog()
        install_spans(spans)
        ok_b, traced = measure(args.seed, args.seconds / 2)
        ok = ok_a and ok_b
        metrics, detail = per_layer(untraced, traced, spans.spans)
        report = {"provenance": prov, "layers": detail}
        reqs = untraced["requests"] + traced["requests"]
    failed = sum(1 for r in reqs if not r["ok"])
    return emit(report, ok, len(reqs), failed, metrics)


if __name__ == "__main__" and sys.argv[1:2] == ["--warm"]:
    one_round(WARMUP_SYMBOLS, int(sys.argv[2]), -1, new_log())
    print(time.monotonic())
