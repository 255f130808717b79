"""``serve_decode``: open-loop ``OP_DECODE`` traffic against ``recoil serve``.

The load generator is this process: one thread, one ``selectors`` loop,
at most ``nproc`` connections with requests pipelined on each.  It never
retries: a ``RETRY_AFTER`` is a failure.  Every request is timed from
its *scheduled* send to its verified last byte, so a stalled generator
or a stalled server shows as latency, and the generator reports how
late its own sends ran (``client.lateness_ms``).

A run is:

1. build the catalogue from the seed (``recoil_compress``, timed as
   ``encode_msym_s``);
2. launch ``recoil serve --port 0 --demo-assets 0`` and ``OP_PUT`` the
   catalogue, :data:`SETUP_REPEATS` times (``setup_s`` is the median;
   the last server stays up);
3. a short warm-up at the reference rate, then the reference step,
   then the rest of the offered-rate ladder until a rung fails
   (``max_rate_rps``, report only), then the closed-loop capacity step
   (``capacity_rps``);
4. settle the server's counters from outside (fresh connection, retry
   until the generator's connections are gone and every submitted
   decode is accounted for), read its peak RSS, SIGTERM it.

Every response is compared with the generated input as it arrives.

With ``--trace 1`` the run measures the reference step twice: first on
an untraced server (with the ladder and the capacity step, for
``served_fraction``), then on a server whose layer entry points are
wrapped by ``serve_entry.py``, and reports per-layer metrics from the
spans.
"""

from __future__ import annotations

import collections
import gc
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field

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
from run import HERE, ROOT, emit, provenance

from repro.core import recoil_compress, recoil_shrink
from repro.core.encoder import RecoilEncoder
from repro.data import exponential_bytes, text_surrogate
from repro.serve import protocol as P

# Catalogue: 16 assets x 4 capacities = 64 shrink keys, which fit the
# server's default 256-entry shrink cache.
ASSETS = 16
SYMBOLS = 20_000
SPLITS = 64
CAPS = (1, 4, 16, 64)
ZIPF_S = 1.1
#: today's knee on a 2-CPU host (numpy kernel): the latency knee read
#: 92-145 req/s and closed-loop capacity 87-137 req/s.
KNEE_RPS = 100.0
#: reference rate, about a fifth of the knee: low enough that queueing
#: does not multiply the host's slow stretches into the tail.
REF_RPS = 20.0
#: latency limit (ms) on the step percentile :data:`LIMIT_PCT`.
LIMIT_MS = 200.0
#: latency percentile the limit and the tail metric use.
LIMIT_PCT = 95.0

#: server launches per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: offered-rate ladder: reference rate times ``LADDER_RATIO ** k``.
LADDER_RATIO = 1.5
#: the ladder reaches this multiple of :data:`KNEE_RPS`, so a 16x
#: faster default still finds a failing rung.
LADDER_TOP_X_KNEE = 16.0
#: a ladder step holds about :data:`STEP_REQUESTS` requests, within
#: [:data:`STEP_MIN_S`, :data:`STEP_MAX_S`] seconds: near today's knee
#: it runs the full window, high on the ladder it is short, so every
#: rung fits in :func:`ladder_budget_s` however high the knee.
STEP_MAX_S = 2.0
STEP_MIN_S = 0.5
STEP_REQUESTS = 240
#: share of ``--seconds`` given to the reference step (the ladder takes
#: what its rungs take; see :func:`ladder_budget_s`).
REFERENCE_SHARE = 0.75
#: share of ``--seconds`` for each reference step of a traced run.
TRACED_SHARE = 0.25
#: share of ``--seconds`` for the closed-loop capacity step, and the
#: requests kept in flight on each connection during it.
CAPACITY_SHARE = 0.25
CAPACITY_DEPTH = 2
#: untimed warm-up at the reference rate before the reference step.
WARMUP_S = 1.0
#: a step whose p99 send lateness exceeds this is invalid, not a pass.
LATENESS_BOUND_MS = 10.0
#: how long to wait for stragglers after a step before giving up.
DRAIN_S = 15.0


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------


@dataclass
class Blob:
    """One catalogue container."""

    bid: int
    data: np.ndarray
    blob: bytes
    encode_s: float
    #: host slowdown of the probe burst before the ``recoil_compress``.
    encode_f: float
    expected: bytes = b""
    #: capacity -> length of ``recoil_shrink(blob, cap)``.
    shrunk_len: dict = field(default_factory=dict)

    def shrunk_bytes(self, cap: int) -> int:
        if cap not in self.shrunk_len:
            self.shrunk_len[cap] = len(recoil_shrink(self.blob, cap))
        return self.shrunk_len[cap]


def build_catalogue(seed: int, speed: HostSpeed):
    """``(names, blobs)``: :data:`ASSETS` seeded assets, alternately
    enwik8-like text and a low-entropy exponential, each compressed at
    :data:`SPLITS` splits between two probe bursts."""
    blobs: list[Blob] = []
    for i in range(ASSETS):
        if i % 2 == 0:
            data = text_surrogate(SYMBOLS, target_entropy=5.29, seed=seed * 1000 + i)
        else:
            data = exponential_bytes(SYMBOLS, lam=500.0, seed=seed * 1000 + i)
        f = speed.before()
        t0 = time.perf_counter()
        blob = recoil_compress(data, num_splits=SPLITS)
        encode_s = time.perf_counter() - t0
        speed.after()
        blobs.append(
            Blob(i, data, blob, encode_s, f, expected=data.tobytes())
        )
    return [f"a{i:03d}" for i in range(ASSETS)], blobs


def encode_msym_s(blobs, normalize: bool = True) -> float:
    """Symbols per second of ``recoil_compress`` over the catalogue,
    each call taken at its asset kind's median (host-normalized) time."""
    kinds: dict = {}
    for b in blobs:
        f = b.encode_f if normalize else 1.0
        kinds.setdefault(b.bid % 2, []).append(b.encode_s / f)
    seconds = sum(len(t) * median(t) for t in kinds.values())
    return sum(b.data.size for b in blobs) / seconds / 1e6


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class Server:
    """A ``recoil serve`` subprocess started through ``serve_entry.py``."""

    def __init__(self, spans_path: str | None = None) -> None:
        cmd = [sys.executable, os.path.join(HERE, "serve_entry.py")]
        if spans_path is not None:
            cmd += ["--spans", spans_path]
        cmd += ["--", "serve", "--port", "0", "--demo-assets", "0"]
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
        )
        self.port = self._wait_listening(60.0)

    def _wait_listening(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        out = self.proc.stdout
        with selectors.DefaultSelector() as sel:
            sel.register(out, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(deadline - time.monotonic()):
                    break
                line = out.readline().decode("utf-8", "replace")
                if not line:
                    break
                if "listening on" in line:
                    addr = line.split("listening on ", 1)[1].split()[0]
                    return int(addr.rsplit(":", 1)[1])
        self.kill()
        raise RuntimeError("recoil serve did not start listening")

    def metrics(self) -> dict:
        with socket.create_connection(("127.0.0.1", self.port), 10) as s:
            s.sendall(P.encode_frame(P.OP_METRICS))
            ftype, body = _read_frame(s)
        if ftype != P.ST_OK:
            raise RuntimeError(f"OP_METRICS answered 0x{ftype:02x}")
        return json.loads(body)

    def settle(self, timeout_s: float = 15.0) -> dict:
        """Counter settle point: the snapshot is taken on a fresh
        connection once it is the only one open and every submitted
        decode is completed or failed."""
        deadline = time.monotonic() + timeout_s
        while True:
            snap = self.metrics()
            req = snap["requests"]
            if (
                snap["network"]["connections"]["active"] == 1
                and req["submitted"] == req["completed"] + req["failed"]
            ):
                return snap
            if time.monotonic() > deadline:
                raise RuntimeError("server counters did not settle")
            time.sleep(0.02)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    return bytes(buf)


def _read_frame(sock: socket.socket) -> tuple[int, bytes]:
    header = _recv_exact(sock, P.HEADER_BYTES)
    ftype, length = P.parse_header(header, P.RESPONSE_TYPES)
    return ftype, _recv_exact(sock, length)


def publish(server: Server, names, blobs) -> float:
    """``OP_PUT`` every asset, pipelined on one connection; returns the
    seconds from server launch to the last acknowledgement."""
    with socket.create_connection(("127.0.0.1", server.port), 10) as s:
        s.sendall(
            b"".join(
                P.encode_put_request(name, b.blob)
                for name, b in zip(names, blobs)
            )
        )
        for b in blobs:
            ftype, body = _read_frame(s)
            if ftype != P.ST_OK or int.from_bytes(body, "big") != b.data.size:
                raise RuntimeError(f"OP_PUT failed: 0x{ftype:02x} {body[:200]!r}")
    return time.perf_counter() - server.t_launch


# ---------------------------------------------------------------------------
# Open-loop generator
# ---------------------------------------------------------------------------


class Request:
    __slots__ = (
        "name",
        "cap",
        "blob",
        "t_sched",
        "t_sent",
        "t_first",
        "t_last",
        "t_done",
        "status",
        "key",
    )

    def __init__(self, name, cap, blob, t_sched):
        self.name = name
        self.cap = cap
        self.blob = blob
        self.t_sched = t_sched
        self.t_sent = self.t_first = self.t_last = self.t_done = None
        self.status = None
        self.key = None

    @property
    def latency_ms(self) -> float:
        return (self.t_done - self.t_sched) * 1e3


class Conn:
    """One pipelined connection: responses arrive in request order."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), 10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.local_port = self.sock.getsockname()[1]
        self.seq = 0
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.pending: collections.deque[Request] = collections.deque()
        self.parts: list[bytes] = []
        self.stream_total = 0
        self.stream_dtype = ""

    def close(self) -> None:
        self.sock.close()


class Generator:
    """Single-threaded open-loop load generator over ``nconn``
    connections (least-outstanding assignment, pipelined)."""

    def __init__(self, port: int, nconn: int) -> None:
        self.port = port
        self.nconn = nconn
        self.conns: list[Conn] = []
        # select(2) sleeps to the microsecond; epoll rounds its timeout
        # up to whole milliseconds, which would add up to 1 ms of send
        # lateness to every request.  Busy-polling instead would hold a
        # CPU the server's threads need.
        self.sel = selectors.SelectSelector()
        self.rr = 0
        self._connect()

    def _connect(self) -> None:
        for _ in range(self.nconn):
            c = Conn(self.port)
            self.conns.append(c)
            self.sel.register(c.sock, selectors.EVENT_READ, c)

    def close(self) -> None:
        for c in self.conns:
            self.sel.unregister(c.sock)
            c.close()
        self.conns = []
        self.sel.close()

    def _reset(self, now: float) -> None:
        for c in self.conns:
            for req in c.pending:
                req.status = req.status or "timeout"
                req.t_done = now
            self.sel.unregister(c.sock)
            c.close()
        self.conns = []
        self._connect()

    # -- sending ---------------------------------------------------------

    def _send(self, req: Request, now: float) -> None:
        conns = self.conns
        best = min(len(c.pending) for c in conns)
        for k in range(len(conns)):
            c = conns[(self.rr + k) % len(conns)]
            if len(c.pending) == best:
                self.rr = (self.rr + k + 1) % len(conns)
                break
        c.seq += 1
        req.key = (c.local_port, c.seq)
        req.t_sent = now
        c.pending.append(req)
        c.wbuf += P.encode_decode_request(req.name, req.cap)
        self._flush(c)

    def _flush(self, c: Conn) -> None:
        if c.wbuf:
            try:
                n = c.sock.send(c.wbuf)
            except BlockingIOError:
                n = 0
            del c.wbuf[:n]
        events = selectors.EVENT_READ | (
            selectors.EVENT_WRITE if c.wbuf else 0
        )
        self.sel.modify(c.sock, events, c)

    # -- receiving -------------------------------------------------------

    def _on_readable(self, c: Conn) -> None:
        try:
            data = c.sock.recv(1 << 20)
        except BlockingIOError:
            return
        now = time.perf_counter()
        if not data:
            raise ConnectionError("server closed a generator connection")
        buf = c.rbuf
        buf += data
        off = 0
        n = len(buf)
        hb = P.HEADER_BYTES
        while n - off >= hb:
            ftype, length = P.parse_header(bytes(buf[off : off + hb]), P.RESPONSE_TYPES)
            end = off + hb + length
            if end > n:
                break
            req = c.pending[0]
            if req.t_first is None:
                req.t_first = now
            body = bytes(buf[off + hb : end])
            off = end
            if ftype == P.ST_STREAM_CHUNK:
                c.parts.append(body)
            elif ftype == P.ST_STREAM_BEGIN:
                _kind, c.stream_dtype, c.stream_total, _ = P.parse_stream_begin(
                    body
                )
                c.parts = []
            else:
                c.pending.popleft()
                req.t_last = now
                self._complete(req, c, ftype, body)
                req.t_done = time.perf_counter()
        if off:
            del buf[:off]

    def _complete(self, req: Request, c: Conn, ftype: int, body: bytes) -> None:
        if ftype == P.ST_RETRY_AFTER:
            req.status = "refused"
            return
        if ftype != P.ST_STREAM_END:
            req.status = "error"
            return
        payload = b"".join(c.parts)
        c.parts = []
        ok = (
            len(payload) == c.stream_total
            and zlib.crc32(payload) == P.parse_stream_end(body)
            and payload == req.blob.expected
            and np.dtype(c.stream_dtype) == req.blob.data.dtype
        )
        req.status = "ok" if ok else "mismatch"

    # -- one step ----------------------------------------------------------

    def run_step(self, plan, window_s: float, grace_s: float) -> dict:
        """Send ``plan`` (``(offset_s, name, cap, blob)`` sorted by
        offset) open-loop, wait ``grace_s`` past the window, then drain.

        Returns the step record: requests, outstanding count at step
        end (window + grace) and the step's wall bounds.
        """
        reqs: list[Request] = []
        # A cyclic-GC pass over a run's worth of request objects stalls
        # the loop for milliseconds; nothing here forms cycles.
        gc.disable()
        try:
            return self._run_step(plan, window_s, grace_s, reqs)
        finally:
            gc.enable()

    def _run_step(self, plan, window_s, grace_s, reqs) -> dict:
        t0 = time.perf_counter() + 0.005
        step_end = t0 + window_s + grace_s
        give_up = step_end + DRAIN_S
        outstanding_at_end = None
        i = 0
        nplan = len(plan)
        while True:
            now = time.perf_counter()
            while i < nplan and t0 + plan[i][0] <= now:
                off, name, cap, blob = plan[i]
                req = Request(name, cap, blob, t0 + off)
                reqs.append(req)
                self._send(req, now)
                i += 1
            busy = any(c.pending for c in self.conns)
            if outstanding_at_end is None and now >= step_end:
                outstanding_at_end = sum(len(c.pending) for c in self.conns)
            if i >= nplan and not busy:
                break
            if now >= give_up:
                self._reset(now)
                break
            timeout = 0.05
            if i < nplan:
                timeout = min(timeout, t0 + plan[i][0] - now)
            elif outstanding_at_end is None:
                timeout = min(timeout, step_end - now)
            for key, events in self.sel.select(max(timeout, 0.0)):
                c = key.data
                if events & selectors.EVENT_WRITE:
                    self._flush(c)
                if events & selectors.EVENT_READ:
                    self._on_readable(c)
        if outstanding_at_end is None:
            late = [r for r in reqs if r.t_done is not None and r.t_done > step_end]
            outstanding_at_end = len(late)
        return {
            "requests": reqs,
            "outstanding_at_end": outstanding_at_end,
            "t0": t0,
            "window_s": window_s,
        }

    def run_closed(self, mix, depth: int, window_s: float) -> dict:
        """Closed loop: keep ``depth`` requests in flight per connection
        for ``window_s``, each completion sending the next request of
        ``mix``; then drain.  Returns the requests and the rate of
        verified completions inside the window."""
        reqs: list[Request] = []
        gc.disable()
        try:
            t0 = time.perf_counter()
            t_end = t0 + window_s
            give_up = t_end + DRAIN_S

            def send(now):
                name, cap, blob = next(mix)
                req = Request(name, cap, blob, now)
                reqs.append(req)
                self._send(req, now)

            for _ in range(depth * len(self.conns)):
                send(t0)
            while any(c.pending for c in self.conns):
                if time.perf_counter() >= give_up:
                    self._reset(time.perf_counter())
                    break
                for key, events in self.sel.select(0.05):
                    c = key.data
                    if events & selectors.EVENT_WRITE:
                        self._flush(c)
                    if events & selectors.EVENT_READ:
                        before = len(c.pending)
                        self._on_readable(c)
                        now = time.perf_counter()
                        for _ in range(before - len(c.pending)):
                            if now < t_end:
                                send(now)
        finally:
            gc.enable()
        ok = sum(1 for r in reqs if r.status == "ok" and r.t_done <= t_end)
        return {"requests": reqs, "window_s": window_s, "rps": ok / window_s}


def make_mix(names, blobs, rng, n: int):
    """``n`` requests ``(name, cap, blob)``: Zipf assets, every capacity
    in an equal share, in random order."""
    ranks = np.arange(1, ASSETS + 1, dtype=float) ** -ZIPF_S
    asset_idx = rng.choice(ASSETS, size=n, p=ranks / ranks.sum())
    caps = rng.permutation(np.resize(np.asarray(CAPS), n))
    return [(names[a], int(c), blobs[a]) for a, c in zip(asset_idx, caps)]


def make_plan(names, blobs, rng, rate: float, window_s: float):
    """Poisson arrivals at ``rate`` over ``window_s`` of :func:`make_mix`
    requests: ``(offset_s, name, cap, blob)``."""
    n_expected = int(rate * window_s * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, n_expected))
    offsets = offsets[offsets < window_s].tolist()
    mix = make_mix(names, blobs, rng, len(offsets))
    return [(off, *req) for off, req in zip(offsets, mix)]


def endless_mix(names, blobs, rng):
    while True:
        yield from make_mix(names, blobs, rng, 1024)


# ---------------------------------------------------------------------------
# Steps and ladder
# ---------------------------------------------------------------------------


def summarize_step(step: dict, rate: float) -> dict:
    reqs = step["requests"]
    lat = [r.latency_ms for r in reqs if r.status == "ok"]
    failures = sum(1 for r in reqs if r.status != "ok")
    late = step["outstanding_at_end"]
    lateness = [(r.t_sent - r.t_sched) * 1e3 for r in reqs]
    attempted = len(reqs)
    fail_ratio = (failures + late) / attempted if attempted else 0.0
    p = percentile(lat, LIMIT_PCT) if lat else float("inf")
    lateness_p99 = percentile(lateness, 99.0) if lateness else 0.0
    valid = lateness_p99 <= LATENESS_BOUND_MS
    return {
        "rate_rps": rate,
        "window_s": step["window_s"],
        "attempted": attempted,
        "completed": len(lat),
        "failures": failures,
        "outstanding_at_end": late,
        "fail_ratio": fail_ratio,
        "p50_ms": median(lat) if lat else float("inf"),
        f"p{LIMIT_PCT:g}_ms": p,
        "p99_ms": percentile(lat, 99.0) if lat else float("inf"),
        "lateness_p99_ms": lateness_p99,
        "valid": valid,
        "passed": bool(valid and fail_ratio == 0 and p <= LIMIT_MS),
    }


def ladder_rates() -> list[float]:
    """Reference rate times ``LADDER_RATIO ** k``, up to the first rung
    at or above ``LADDER_TOP_X_KNEE`` times today's knee."""
    top = KNEE_RPS * LADDER_TOP_X_KNEE
    rates = [REF_RPS]
    while rates[-1] < top:
        rates.append(rates[-1] * LADDER_RATIO)
    return rates


def step_window_s(rate: float) -> float:
    return min(STEP_MAX_S, max(STEP_MIN_S, STEP_REQUESTS / rate))


def ladder_budget_s() -> float:
    """Seconds of offered load when every rung runs and the last one
    twice (retries of invalid steps and drains come on top): the
    ladder's time does not grow with the knee."""
    grace = LIMIT_MS / 1e3
    return sum(step_window_s(r) + grace for r in ladder_rates()[1:]) + STEP_MAX_S + grace


def run_ladder(gen, names, blobs, seed, ref_s):
    """Warm-up, reference step, then every rung up to the first one
    that fails.

    A host stall can fail a short step far below the knee, so a failing
    rung is tried twice.  Returns ``(reference_record, step_summaries,
    max_rate_rps, first_failing_rps, all_requests)``; both rates are
    None when even the top rung passed (the ladder saturated: no knee
    measured).
    """
    rng = np.random.default_rng([seed, 7])
    grace = LIMIT_MS / 1e3
    all_reqs = []

    def step(rate, window, retries=1):
        # A step the generator could not send on time is invalid: it is
        # run again (once), and counts as failed if still invalid.
        for _ in range(retries + 1):
            rec = gen.run_step(make_plan(names, blobs, rng, rate, window), window, grace)
            all_reqs.extend(rec["requests"])
            summary = summarize_step(rec, rate)
            if summary["valid"]:
                break
        return rec, summary

    step(REF_RPS, WARMUP_S, retries=0)
    ref_rec, ref_sum = step(REF_RPS, ref_s, retries=0)
    steps = [ref_sum]
    # The reference step is not repeated when invalid (it is long); the
    # report flags it, and the ladder goes on if it met the limit.
    ref_ok = ref_sum["fail_ratio"] == 0 and ref_sum[f"p{LIMIT_PCT:g}_ms"] <= LIMIT_MS
    if not ref_ok:
        return ref_rec, steps, 0.0, REF_RPS, all_reqs
    rates = ladder_rates()
    for k in range(1, len(rates)):
        _, s = step(rates[k], step_window_s(rates[k]))
        steps.append(s)
        if not s["passed"]:
            _, s = step(rates[k], step_window_s(rates[k]))
            s["repeat"] = True
            steps.append(s)
        if not s["passed"]:
            return ref_rec, steps, rates[k - 1], rates[k], all_reqs
    return ref_rec, steps, None, None, all_reqs


# ---------------------------------------------------------------------------
# Traced-run attribution
# ---------------------------------------------------------------------------

#: layers a span or the generator's clock measures, and the gaps.
MEASURED_LAYERS = ("client", "net", "service", "store", "core", "parallel")
UNMEASURED_LAYERS = ("gap", "residue")


def attribute(reqs, spans, p50_ms):
    """Per-layer time along each request's blocking path.

    Measured layers: ``client`` (send lateness, verify), ``net`` (the
    server's read and write spans), ``service`` (admission, queue wait,
    dispatcher time around the kernel), ``store`` (shrink-cache lookup
    self time), ``core`` (shrink on a miss), ``parallel`` (the fused
    kernel).  Unmeasured: ``gap`` is the socket wait before the server
    reads the request, the handler's time outside every span (request
    parsing, the dispatcher's hand-back, building frames) and the
    receive tail after the handler returns; ``residue`` is the rest.
    Summarized over the requests nearest ``p50_ms`` by
    :func:`common.summarize_attribution`.  A missing wrapper between
    the server's read and write moves its time into ``gap`` and fails
    the check; a missing leaf (say the kernel under the dispatcher)
    moves it into its parent layer instead, and its own metric reads 0.
    """
    by_req = collections.defaultdict(list)
    kernel_child = {}
    selft = self_times(spans)
    for sp in spans:
        if sp[5] is not None:
            by_req[tuple(sp[5])].append(sp)
        if sp[2] == "parallel.kernel":
            kernel_child[sp[1]] = sp
    kernel_of = {}
    for sp in spans:
        if sp[2] == "service.execute":
            for req, admitted in zip(sp[6]["reqs"], sp[6]["admitted"]):
                if req is not None:
                    kernel_of[tuple(req)] = (sp, kernel_child.get(sp[0]), admitted)
    rows = []
    for r in reqs:
        if r.status != "ok" or r.key not in by_req:
            continue
        sps = {}
        for sp in by_req[r.key]:
            sps.setdefault(sp[2], []).append(sp)
        if "net.read" not in sps or "net.handle" not in sps:
            continue
        read = sps["net.read"][0]
        handle = sps["net.handle"][0]
        write = sum(sp[4] - sp[3] for sp in sps.get("net.write", []))
        shrink = sum(sp[4] - sp[3] for sp in sps.get("core.shrink", []))
        store_self = sum(selft[sp[0]] for sp in sps.get("store.shrunk", []))
        service = sum(selft[sp[0]] for sp in sps.get("service.submit", []))
        ktime = 0.0
        # Without a dispatcher span the queue wait and the kernel stay
        # in the handler's self time, a gap, and the check fails.
        if r.key in kernel_of:
            ex, k, admitted = kernel_of[r.key]
            ktime = (k[4] - k[3]) if k else 0.0
            service += (ex[3] - admitted) + (ex[4] - ex[3] - ktime)
        handle_self = (handle[4] - handle[3]) - (
            write + shrink + store_self + service + ktime
        )
        row = {
            "total": r.t_done - r.t_sched,
            "client": (r.t_sent - r.t_sched) + (r.t_done - r.t_last),
            "net": (read[4] - read[3]) + write,
            "service": service,
            "store": store_self,
            "core": shrink,
            "parallel": ktime,
            "gap": (read[3] - r.t_sent)
            + max(handle_self, 0.0)
            + max(r.t_last - handle[4], 0.0),
        }
        row["residue"] = row["total"] - sum(
            row[k] for k in (*MEASURED_LAYERS, "gap")
        )
        rows.append(row)
    if not rows:
        return None
    return summarize_attribution(rows, MEASURED_LAYERS, UNMEASURED_LAYERS, p50_ms)


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------


def nconnections() -> int:
    return len(os.sched_getaffinity(0))


def start_server(names, blobs, spans_path=None):
    server = Server(spans_path)
    try:
        setup_s = publish(server, names, blobs)
    except BaseException:
        server.kill()
        raise
    return server, setup_s


def measure(server, names, blobs, seed, ref_s, capacity_s):
    gen = Generator(server.port, nconnections())
    try:
        ref_rec, steps, max_rate, first_fail, reqs = run_ladder(
            gen, names, blobs, seed, ref_s
        )
        mix = endless_mix(names, blobs, np.random.default_rng([seed, 8]))
        capacity = gen.run_closed(mix, CAPACITY_DEPTH, capacity_s)
    finally:
        gen.close()
    snap = server.settle()
    rss = vm_hwm_mib(server.proc.pid)
    return {
        "ref": ref_rec,
        "steps": steps,
        "max_rate_rps": max_rate,
        "first_failing_rps": first_fail,
        "capacity_rps": capacity["rps"],
        "requests": reqs + capacity["requests"],
        "snapshot": snap,
        "server_rss_mb": rss,
    }


def end_to_end(res, setups, blobs, normalize=True):
    """End-to-end metrics.

    Only ``encode_msym_s`` -- work in this process, each call after a
    probe burst -- is divided by the host slowdown (unless
    ``normalize`` is False).  The served timings stay raw: the server
    runs on the other CPU under queueing, and probe bursts between
    steps tracked its speed worse than no correction at all (the
    served spreads doubled when tried).  Setup time stays raw too:
    interpreter start and imports do not track the probe loop.
    """
    measured = [r for r in res["ref"]["requests"] if r.status == "ok"]
    lat = [r.latency_ms for r in measured]

    def delivery(cap):
        # delivered symbols per second of one request at this capacity
        vals = [
            r.blob.data.size / (r.latency_ms / 1e3) for r in measured if r.cap == cap
        ]
        return median(vals) / 1e6

    # What the client would fetch to decode each request itself.
    bits = sum(8 * r.blob.shrunk_bytes(r.cap) for r in measured)
    syms = sum(r.blob.data.size for r in measured)
    return {
        "setup_s": (median(setups), "s"),
        "encode_msym_s": (encode_msym_s(blobs, normalize), "Msym/s"),
        "decode_narrow_msym_s": (delivery(min(CAPS)), "Msym/s"),
        "decode_wide_msym_s": (delivery(SPLITS), "Msym/s"),
        "wire_bits_per_sym": (bits / syms, "bits/sym"),
        "p50_ms": (median(lat), "ms"),
        "capacity_rps": (res["capacity_rps"], "req/s"),
        "ok_ratio": (1.0 - res["steps"][0]["fail_ratio"], "ratio"),
        "server_rss_mb": (res["server_rss_mb"], "MiB"),
    }


def run(args) -> int:
    seconds = args.seconds
    encoder_log = SpanLog()
    if args.trace:
        # The catalogue is compressed here, in the generator process.
        encoder_log.wrap(
            RecoilEncoder,
            "encode",
            "parallel.encode",
            lambda a, k, r: {"symbols": int(np.asarray(a[1]).size)},
        )
    speed = HostSpeed()
    names, blobs = build_catalogue(args.seed, speed)
    setups = []
    server = None
    try:
        for k in range(SETUP_REPEATS if not args.trace else 1):
            server, setup_s = start_server(names, blobs)
            setups.append(setup_s)
            if k < SETUP_REPEATS - 1 and not args.trace:
                server.stop()
        # Traced runs measure the untraced reference step shorter and
        # spend TRACED_SHARE of the time on the traced one.
        ref_share = REFERENCE_SHARE if not args.trace else TRACED_SHARE
        res = measure(
            server,
            names,
            blobs,
            args.seed,
            seconds * ref_share,
            seconds * CAPACITY_SHARE,
        )
    finally:
        if server is not None:
            server.stop()
    traced = None
    if args.trace:
        traced = traced_phase(args, names, blobs, seconds * TRACED_SHARE)
    all_reqs = res["requests"] + (traced["requests"] if traced else [])
    mismatched = [r for r in all_reqs if r.status == "mismatch"]
    attempted = len(all_reqs) + len(names) * (len(setups) + bool(traced))
    failed = sum(1 for r in all_reqs if r.status != "ok")
    report = {
        "provenance": provenance(
            args,
            server_backend=res["snapshot"]["resilience"]["backend"],
            server_kernel=res["snapshot"]["resilience"]["kernel"],
            rate_ladder_rps=ladder_rates(),
            ladder_budget_s=ladder_budget_s(),
            latency_limit=f"p{LIMIT_PCT:g} <= {LIMIT_MS} ms",
            lateness_bound_ms=LATENESS_BOUND_MS,
            connections=nconnections(),
            catalogue={
                "assets": ASSETS,
                "symbols": SYMBOLS,
                "splits": SPLITS,
                "caps": CAPS,
                "zipf_s": ZIPF_S,
            },
        ),
        "setup_s_samples": setups,
        "steps": res["steps"],
        # The latency knee: reported, not gated (see the README).
        "max_rate_rps": res["max_rate_rps"],
        "first_failing_rps": res["first_failing_rps"],
        "ladder_saturated": res["first_failing_rps"] is None,
        "capacity_step": {
            "window_s": seconds * CAPACITY_SHARE,
            "depth_per_connection": CAPACITY_DEPTH,
            "rps": res["capacity_rps"],
        },
        "tail_samples": len(res["ref"]["requests"]),
        "mismatches": len(mismatched),
        "mismatch_examples": [
            {"name": r.name, "cap": r.cap, "key": r.key} for r in mismatched[:5]
        ],
        "host_speed": speed.summary(),
    }
    if traced:
        layer, report["layers"] = per_layer(res, traced, encoder_log.spans)
        return emit(report, not mismatched, attempted, failed, layer)
    metrics = end_to_end(res, setups, blobs, normalize=not speed.influenced())
    report["end_to_end"] = {k: v[0] for k, v in metrics.items()}
    raw = end_to_end(res, setups, blobs, normalize=False)
    report["end_to_end_raw"] = {k: v[0] for k, v in raw.items()}
    return emit(report, not mismatched, attempted, failed, metrics)


def traced_phase(args, names, blobs, ref_s):
    """Reference step against a server with wrapped entry points."""
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
    server = None
    try:
        server, _ = start_server(names, blobs, spans_path)
        gen = Generator(server.port, nconnections())
        rng = np.random.default_rng([args.seed, 7])
        grace = LIMIT_MS / 1e3
        try:
            warm = make_plan(names, blobs, rng, REF_RPS, WARMUP_S)
            w = gen.run_step(warm, WARMUP_S, grace)
            plan = make_plan(names, blobs, rng, REF_RPS, ref_s)
            rec = gen.run_step(plan, ref_s, grace)
        finally:
            gen.close()
        snap = server.settle()
    finally:
        if server is not None:
            server.stop()
    with open(spans_path) as fh:
        spans = [tuple(s) for s in json.load(fh)]
    os.remove(spans_path)
    return {
        "requests": w["requests"] + rec["requests"],
        "ref": rec,
        "spans": spans,
        "snapshot": snap,
        "summary": summarize_step(rec, REF_RPS),
    }


def per_layer(res, traced, encode_spans):
    """Per-layer metrics of a traced run (and the full detail)."""
    spans = traced["spans"]
    snap = traced["snapshot"]
    rec = traced["ref"]
    t_lo = rec["t0"]
    t_hi = rec["t0"] + rec["window_s"]
    in_ref = [s for s in spans if t_lo <= s[3] <= t_hi]
    kern = [s for s in in_ref if s[2] == "parallel.kernel"]
    k_time = sum(s[4] - s[3] for s in kern)
    k_syms = sum(s[6].get("symbols", 0) for s in kern)
    k_decoded = sum(s[6].get("decoded", 0) for s in kern)
    lane_util = (
        sum(s[6].get("lane_utilization", 0.0) * (s[4] - s[3]) for s in kern) / k_time
        if k_time
        else 0.0
    )
    ns_per_est = [
        (s[4] - s[3]) * 1e9 / s[6]["est_symbols"] for s in kern if s[6].get("est_symbols")
    ]
    shrink = [(s[4] - s[3]) * 1e3 for s in spans if s[2] == "core.shrink"]
    # metadata bytes of every variant the server shrank, by capacity
    md = [(s[6]["cap"], s[6]["metadata_bytes"]) for s in spans if s[2] == "core.shrink"]
    parse = [(s[4] - s[3]) * 1e3 for s in spans if s[2] == "core.parse"]
    ref_reqs = [r for r in rec["requests"] if r.status == "ok"]
    executes = [s for s in in_ref if s[2] == "service.execute"]
    batch_sizes = [len(s[6]["reqs"]) for s in executes]
    queue_waits = [
        (s[3] - a) * 1e3 for s in executes for a in s[6]["admitted"]
    ]
    stimes = self_times(spans)
    admission = [stimes[s[0]] * 1e3 for s in in_ref if s[2] == "service.submit"]
    shr = [s for s in in_ref if s[2] == "store.shrunk"]
    hit_ratio = sum(1 for s in shr if s[6].get("hit")) / len(shr) if shr else 0.0
    net_stage = {}
    for name in ("net.read", "net.handle", "net.write"):
        vals = [(s[4] - s[3]) * 1e3 for s in in_ref if s[2] == name]
        net_stage[name] = {
            "p50_ms": median(vals) if vals else None,
            "p99_ms": percentile(vals, 99.0) if vals else None,
        }
    client = {
        "ttfb_ms": median([(r.t_first - r.t_sent) * 1e3 for r in ref_reqs]),
        "transfer_ms": median([(r.t_last - r.t_first) * 1e3 for r in ref_reqs]),
        "verify_ms": median([(r.t_done - r.t_last) * 1e3 for r in ref_reqs]),
        "lateness_p99_ms": traced["summary"]["lateness_p99_ms"],
        "backlog": traced["summary"]["outstanding_at_end"],
    }
    traced_p50 = traced["summary"]["p50_ms"]
    attr = attribute(rec["requests"], spans, traced_p50)
    net = snap["network"]
    nreq = net["requests"]["ok"] + net["requests"]["failed"]
    decode_msym_s = k_syms / k_time / 1e6 if k_time else 0.0
    served_fraction = (
        res["capacity_rps"] * SYMBOLS / 1e6 / decode_msym_s if decode_msym_s else 0.0
    )
    shares = (attr or {}).get("layer_self_ms", {})
    band = (attr or {}).get("band_mean_total_ms") or 1.0
    metrics = {
        "parallel.decode_msym_s": (decode_msym_s, "Msym/s"),
        "parallel.commit_ratio": (k_syms / k_decoded if k_decoded else 0.0, "ratio"),
        "parallel.lane_utilization": (lane_util, "sym/task-iter"),
        "parallel.encode_msym_s": (
            sum(sp[6]["symbols"] for sp in encode_spans)
            / sum(sp[4] - sp[3] for sp in encode_spans)
            / 1e6,
            "Msym/s",
        ),
        "core.shrink_p50_ms": (median(shrink), "ms"),
        "core.shrink_p99_ms": (percentile(shrink, 99.0), "ms"),
        "core.parse_p50_ms": (median(parse), "ms"),
        "core.metadata_bytes": (sum(b for _, b in md) / len(md), "bytes"),
        "store.shrink_hit_ratio": (hit_ratio, "ratio"),
        "service.batch_requests_mean": (
            sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0,
            "count",
        ),
        "service.kernel_busy_ratio": (k_time / rec["window_s"], "ratio"),
        "net.bytes_per_req": (net["requests"]["bytes_written"] / nreq if nreq else 0.0, "bytes"),
        "net.transport_errors": (net["transport_errors"], "count"),
        "net.retry_afters": (net["retry_afters_sent"], "count"),
        "client.backlog": (client["backlog"], "count"),
        "client.verify_p50_ms": (client["verify_ms"], "ms"),
        "served_fraction": (served_fraction, "ratio"),
        "trace.overhead_p50_ms": (traced_p50 - res["steps"][0]["p50_ms"], "ms"),
    }
    for layer in (*MEASURED_LAYERS, *UNMEASURED_LAYERS):
        metrics[f"attr.{layer}_share"] = (shares.get(layer, 0.0) / band, "ratio")
    detail = {
        "attribution": attr,
        "untraced_p50_ms": res["steps"][0]["p50_ms"],
        "traced_p50_ms": traced_p50,
        "traced_reference_step": traced["summary"],
        "service.queue_wait_ms": {
            "p50": median(queue_waits) if queue_waits else None,
            "p99": percentile(queue_waits, 99.0) if queue_waits else None,
        },
        "service.admission_ms": {
            "p99": percentile(admission, 99.0) if admission else None
        },
        "costmodel.ns_per_est_symbol": {
            "median": median(ns_per_est) if ns_per_est else None,
            "p10": percentile(ns_per_est, 10.0) if ns_per_est else None,
            "p90": percentile(ns_per_est, 90.0) if ns_per_est else None,
        },
        "core.metadata_bytes_by_cap": dict(md),
        "core.shrink_ms_by_cap": shrink_by_cap(
            [s for s in spans if s[2] == "core.shrink"]
        ),
        "net": net_stage,
        "client": client,
        "server_stage_latency_ms": snap["stage_latency_ms"],
    }
    return metrics, detail
