"""The compiled kernels: C twins of the fused loops (DESIGN.md §19).

A small C source is compiled once with the host C compiler into a
shared library driven through :mod:`ctypes` (foreign calls release the
GIL), cached under the system temp directory by source hash so later
processes only pay a ``dlopen``.  It holds ``recoil_rans_walk`` — the
*whole* rANS decode walk of every task in one call, every memory
access bounds-checked — plus the encode sweep
(:mod:`repro.parallel.fused_encode`) and the tANS speculative safe
runs (:mod:`repro.tans.fused`).

``"compiled"`` is the default kernel everywhere.  Without a C compiler
(or with ``REPRO_COMPILED_TOOLCHAIN=none``) every entry point returns
"not run" and :func:`effective_kernel` resolves ``"compiled"`` to
``"numpy"`` with a one-time logged notice: the knob surface keeps
working, it just reports what actually ran.

Bit-identity contract: on success paths the compiled loops perform the
*same* arithmetic in the same order as the numpy loops they twin
(uint64 wraparound, descending-lane renormalization reads, truncating
output stores), so the differential suites assert identical streams,
split events and :class:`~repro.parallel.simd.EngineStats`.  On error
paths both raise :class:`DecodeError`; buffer contents are then
unobservable and may differ.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
import threading

import numpy as np

from repro.rans.constants import L_BOUND, RENORM_BITS

log = logging.getLogger("repro.compiled")

#: kernel implementations selectable through every ``backend=`` knob.
KERNELS = ("numpy", "compiled")

_ENV_TOOLCHAIN = "REPRO_COMPILED_TOOLCHAIN"  # auto|cc|none

_lock = threading.Lock()
_state: dict = {
    "toolchain": None,  # resolved lazily: "cc" | "none"
    "impl": None,  # the bound library once a toolchain is up
    "compile_events": 0,
    "warned_fallback": False,
}

# ---------------------------------------------------------------------------
# Backend-string parsing: one knob selects pool and kernel together.
# ---------------------------------------------------------------------------


def split_backend(
    backend: str, default_pool: str = "thread"
) -> tuple[str, str]:
    """Parse a ``backend`` knob into ``(pool, kernel)``.

    Accepted forms: a bare pool (``"thread"``, ``"fused"``), the
    shorthand ``"compiled"`` (= ``default_pool`` with the compiled
    kernel), or ``"<pool>+compiled"``.  Pool names
    are *not* validated against any particular surface here — callers
    check the pool against their own supported set so their error
    types stay unchanged.

    :raises ValueError: a ``+``-composed suffix other than
        ``compiled`` (e.g. ``"thread+gpu"``).
    """
    if backend == "compiled":
        return default_pool, "compiled"
    pool, plus, kern = backend.partition("+")
    if not plus:
        return backend, "numpy"
    if kern != "compiled":
        raise ValueError(
            f"unknown kernel suffix {kern!r} in backend {backend!r}; "
            f"expected '<pool>+compiled'"
        )
    return pool, "compiled"


def backend_choices(pools: tuple[str, ...]) -> tuple[str, ...]:
    """All backend strings valid for a surface supporting ``pools``:
    the pools themselves, ``"compiled"``, and every composed form."""
    return (
        tuple(pools)
        + ("compiled",)
        + tuple(f"{p}+compiled" for p in pools)
    )


# ---------------------------------------------------------------------------
# Toolchain detection and the compiled/numpy resolution.
# ---------------------------------------------------------------------------


def _find_cc() -> str | None:
    for name in ("cc", "gcc", "clang"):
        for d in os.environ.get("PATH", "").split(os.pathsep):
            cand = os.path.join(d, name)
            if os.path.isfile(cand) and os.access(cand, os.X_OK):
                return cand
    return None


def _detect_toolchain() -> str:
    forced = os.environ.get(_ENV_TOOLCHAIN, "auto").lower()
    if forced in ("cc", "auto") and _find_cc() is not None:
        return "cc"
    return "none"


def toolchain() -> str:
    """The compiled toolchain in use: ``"cc"`` or ``"none"``
    (override with ``REPRO_COMPILED_TOOLCHAIN=auto|cc|none``)."""
    with _lock:
        if _state["toolchain"] is None:
            _state["toolchain"] = _detect_toolchain()
        return _state["toolchain"]


def kernel_available() -> bool:
    """Whether ``kernel="compiled"`` can actually run here."""
    return _impl() is not None


def effective_kernel(requested: str) -> str:
    """Resolve a requested kernel to the one that will run.

    ``"compiled"`` degrades to ``"numpy"`` (with a one-time logged
    notice) when no toolchain is available or the build failed.

    :raises ValueError: a kernel name outside :data:`KERNELS`.
    """
    if requested not in KERNELS:
        raise ValueError(
            f"unknown kernel {requested!r}; expected one of {KERNELS}"
        )
    if requested == "numpy":
        return "numpy"
    if _impl() is not None:
        return "compiled"
    with _lock:
        if not _state["warned_fallback"]:
            _state["warned_fallback"] = True
            log.warning(
                "compiled kernel requested but no toolchain is available "
                "(no C compiler on PATH, or REPRO_COMPILED_TOOLCHAIN=none); "
                "falling back to the numpy kernels"
            )
    return "numpy"


def compile_events() -> int:
    """Monotonic count of actual C-compiler invocations (cache hits
    do not count).
    Benchmarks and the serve path assert this stays constant across
    timed regions after :func:`warm_up`."""
    with _lock:
        return _state["compile_events"]


def _count_compile() -> None:
    with _lock:
        _state["compile_events"] += 1


def reset_for_tests() -> None:
    """Drop all cached toolchain state (tests only: lets a test force
    re-detection under a different ``REPRO_COMPILED_TOOLCHAIN``)."""
    with _lock:
        _state["toolchain"] = None
        _state["impl"] = None
        _state["warned_fallback"] = False


# ---------------------------------------------------------------------------
# The C leg.
# ---------------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Whole-walk rANS decode (DESIGN.md §19).  Each task walks from walk_hi
   down to walk_lo one interleave group per iteration, like the numpy
   loop in fused.py: install due activations, Eq. 4 reads in descending
   lane order, Eq. 2 via the slot-indexed tables, store what is
   committed; then the terminal drain.  Every word read, out write, ids
   read, table index and lane is checked against the lengths passed in;
   a violation returns ERR_* with task and position in info[3..4].  Walk
   errors beat drain errors, the first drain error in task order wins.
   geom rows: fused.py's GEOM_COLUMNS; acts rows: (iteration, lane,
   state); info[0..2]: symbols decoded, words read, iterations. */

enum { ERR_READ = 1, ERR_START, ERR_OUT, ERR_MODEL, ERR_LANE, ERR_DRAIN,
       ERR_CONSUMED, ERR_STATE, ERR_GEOMETRY };

#define SAFE (((int64_t)1) << 60)  /* keeps all index sums in int64 */

static inline uint64_t word_at(const uint8_t *words, int64_t i)
{   /* the payload view may be unaligned */
    uint16_t w;
    memcpy(&w, words + 2 * i, 2);
    return w;
}

static inline void put(uint8_t *dst, int64_t size, uint64_t v)
{   /* truncating native-endian store */
    uint8_t b = (uint8_t)v;
    uint16_t h = (uint16_t)v;
    uint32_t w = (uint32_t)v;
    switch (size) {
    case 1: memcpy(dst, &b, 1); break;
    case 2: memcpy(dst, &h, 2); break;
    case 4: memcpy(dst, &w, 4); break;
    default: memcpy(dst, &v, 8);
    }
}

int64_t recoil_rans_walk(
    const int64_t *geom, int64_t T, int64_t K, uint64_t *x,
    const int64_t *act_off, const int64_t *acts, int64_t A,
    const uint8_t *words, int64_t W,
    const uint64_t *freq, const uint64_t *bias, const uint64_t *sym,
    int64_t n_tab, const uint64_t *ids, int64_t n_ids,
    uint64_t slots, uint64_t shift, uint64_t rb, uint64_t lbound,
    uint8_t *out, int64_t n_out, int64_t size, int64_t *info)
{
    const uint64_t slot_mask = (((uint64_t)1) << (shift & 63)) - 1;
    const uint64_t full = K >= 64 ? ~(uint64_t)0 : (((uint64_t)1) << K) - 1;
    int64_t symbols = 0, words_read = 0, iters = 0;
    int64_t err = 0, err_task = 0, err_pos = 0;

    info[3] = info[4] = 0;
    if (K < 1 || K > 64 || shift >= 64 || rb >= 64 || act_off[0] != 0
        || act_off[T] != A || (size != 1 && size != 2 && size != 4
        && size != 8) || (!ids && slot_mask >= (uint64_t)n_tab))
        return ERR_GEOMETRY;
    for (int64_t t = 0; t < T; ++t) {
        const int64_t *g = geom + 9 * t;
        info[3] = t;
        info[4] = g[0];
        if (g[0] >= W)
            return ERR_START;
        for (int c = 0; c < 7; ++c)
            if (g[c] < -SAFE || g[c] > SAFE)
                return ERR_GEOMETRY;
        if (act_off[t + 1] < act_off[t] || act_off[t + 1] > A)
            return ERR_GEOMETRY;
    }

    for (int64_t t = 0; t < T; ++t) {
        const int64_t *g = geom + 9 * t;
        const int64_t lo = g[2], c_hi = g[3], c_lo = g[4], offs = g[5];
        uint64_t *xr = x + t * K, active = g[8] ? full : 0;
        int64_t pos = g[0], cur = g[1], r = 0, ap = act_off[t];
        info[3] = t;
        for (; cur >= lo; ++r) {
            for (; ap < act_off[t + 1] && acts[3 * ap] <= r; ++ap) {
                const int64_t lane = acts[3 * ap + 1];
                if (lane < 0 || lane >= K)
                    return ERR_LANE;
                xr[lane] = (uint64_t)acts[3 * ap + 2];
                active |= ((uint64_t)1) << lane;
            }
            const int64_t base = ((cur - 1) / K - ((cur - 1) % K < 0)) * K;
            const int64_t sl = lo > base + 1 ? lo : base + 1;
            const int64_t la = sl - base - 1, lb = cur - base - 1;
            const int64_t o0 = offs + base;  /* out position of lane 0 */
            int64_t src = pos;
            if (active == full && la == 0 && lb == K - 1 && base + 1 >= c_lo
                && base + K <= c_hi && o0 >= 0 && o0 + K <= n_out
                && (!ids || o0 + K <= n_ids)) {
                /* Steady group: all lanes live, full and committed; the
                   out/ids span is checked once for the whole group. */
                for (int64_t l = K - 1; l >= 0; --l) {
                    if (xr[l] < lbound) {
                        if (src < 0)
                            return info[4] = src, ERR_READ;
                        xr[l] = (xr[l] << rb) | word_at(words, src--);
                    }
                }
                for (int64_t l = 0; l < K; ++l) {
                    const uint64_t xv = xr[l];
                    uint64_t fl = (xv & slot_mask)
                        + (ids ? ids[o0 + l] * slots : 0);
                    if (fl >= (uint64_t)n_tab)
                        return ERR_MODEL;
                    xr[l] = freq[fl] * (xv >> shift) + bias[fl];
                    put(out + (o0 + l) * size, size, sym[fl]);
                }
                symbols += K;
            } else {
                for (int64_t l = lb; l >= la; --l) {
                    if ((active >> l & 1) && xr[l] < lbound) {
                        if (src < 0)
                            return info[4] = src, ERR_READ;
                        xr[l] = (xr[l] << rb) | word_at(words, src--);
                    }
                }
                for (int64_t l = la; l <= lb; ++l) {
                    if (!(active >> l & 1))
                        continue;
                    const uint64_t xv = xr[l];
                    const int64_t o = o0 + l;
                    uint64_t fl = xv & slot_mask;
                    if (ids) {  /* clipped, like the numpy gather */
                        const int64_t i = o < 0 ? 0 : o < n_ids ? o : n_ids - 1;
                        if (i < 0)
                            return ERR_MODEL;
                        fl += ids[i] * slots;
                    }
                    if (fl >= (uint64_t)n_tab)
                        return ERR_MODEL;
                    xr[l] = freq[fl] * (xv >> shift) + bias[fl];
                    ++symbols;
                    if (base + l + 1 < c_lo || base + l + 1 > c_hi)
                        continue;
                    if (o < 0 || o >= n_out)
                        return ERR_OUT;
                    put(out + o * size, size, sym[fl]);
                }
            }
            words_read += pos - src;
            pos = src;
            cur = sl - 1;
        }
        iters = r > iters ? r : iters;

        /* Terminal drain: every lane reads back to L, and the stream
           position lands exactly on terminal_pos. */
        if (!g[7] || err)
            continue;
        for (int64_t l = K - 1; l >= 0 && !err; --l) {
            while (xr[l] < lbound && !err) {
                if (pos <= g[6])
                    err = ERR_DRAIN;
                else if (pos < 0)
                    return info[4] = pos, ERR_READ;
                else {
                    xr[l] = (xr[l] << rb) | word_at(words, pos--);
                    ++words_read;
                }
            }
        }
        if (!err && pos != g[6])
            err = ERR_CONSUMED;
        for (int64_t l = 0; l < K && !err; ++l)
            if (xr[l] != lbound)
                err = ERR_STATE;
        if (err) {
            err_task = t;
            err_pos = pos;
        }
    }
    info[0] = symbols;
    info[1] = words_read;
    info[2] = iters;
    info[3] = err_task;
    info[4] = err_pos;
    return err;
}

/* Steady-phase rANS encode sweep (twin of run_blocks' zip loop):
   stage the pre-renormalization state trajectory X and the keep
   masks; word emission is reconstructed from them by the caller. */
void recoil_rans_encode_sweep(
    uint64_t *X, const uint64_t *bb, const uint64_t *fb,
    const uint64_t *cb, const uint64_t *db, uint8_t *need,
    uint64_t rb, int64_t bg, int64_t W)
{
    for (int64_t i = 0; i < bg; ++i) {
        const uint64_t *b = bb + i * W;
        const uint64_t *f = fb + i * W;
        const uint64_t *c = cb + i * W;
        const uint64_t *d = db + i * W;
        uint8_t *n = need + i * W;
        const uint64_t *xp = X + i * W;
        uint64_t *xn = X + (i + 1) * W;
        for (int64_t w = 0; w < W; ++w) {
            uint64_t x0 = xp[w];
            uint8_t keep = x0 < b[w];
            n[w] = keep;
            uint64_t xr = keep ? x0 : (x0 >> rb);
            uint64_t q = xr / f[w];
            xn[w] = xr + q * c[w] + d[w];
        }
    }
}

/* tANS speculative-pass safe run (twin of the branch-free inner loop
   of fused_speculative_pass).  Returns the new step index. */
int64_t recoil_tans_safe_run(
    int64_t *traj_pos, int64_t *traj_state, int64_t stride,
    int64_t *pos, int64_t *state,
    const int64_t *pk, int64_t table_size,
    const int64_t *win24,
    int64_t live, int64_t step, int64_t safe)
{
    for (int64_t s = 0; s < safe; ++s) {
        int64_t *tp = traj_pos + step * stride;
        int64_t *ts = traj_state + step * stride;
        for (int64_t k = 0; k < live; ++k) {
            int64_t p = pos[k];
            int64_t xx = state[k];
            tp[k] = p;
            ts[k] = xx;
            int64_t g = pk[xx - table_size];
            int64_t nb = (g >> 17) & 31;
            int64_t sh = 24 - (p & 7) - nb;
            state[k] = (g >> 22)
                + ((win24[p >> 3] >> sh) & (g & 0x1FFFF));
            pos[k] = p + nb;
        }
        step++;
    }
    return step;
}
"""


def _build_cc_lib():
    """Compile (or reuse) the shared library and bind it."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{os.getuid()}"
    )
    so_path = os.path.join(cache_dir, f"librepro-{digest}.so")
    if not os.path.exists(so_path):
        compiler = _find_cc()
        if compiler is None:
            return None
        os.makedirs(cache_dir, exist_ok=True)
        src_path = os.path.join(cache_dir, f"repro-{digest}.c")
        tmp_so = so_path + f".tmp.{os.getpid()}"
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        try:
            subprocess.run(
                [compiler, "-O3", "-shared", "-fPIC", "-o", tmp_so,
                 src_path],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp_so, so_path)  # atomic vs concurrent builders
        except (subprocess.SubprocessError, OSError) as exc:
            log.warning("C kernel build failed: %s", exc)
            return None
        _count_compile()
    try:
        return _bind(ctypes.CDLL(so_path))
    except OSError as exc:
        log.warning("C kernel load failed: %s", exc)
        return None


def _bind(lib):
    """Declare the entry points' signatures on a loaded library."""
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    u64 = ctypes.c_uint64
    lib.recoil_rans_walk.restype = i64
    lib.recoil_rans_walk.argtypes = [
        p, i64, i64, p, p, p, i64, p, i64, p, p, p, i64, p, i64,
        u64, u64, u64, u64, p, i64, i64, p,
    ]
    lib.recoil_rans_encode_sweep.restype = None
    lib.recoil_rans_encode_sweep.argtypes = [
        p, p, p, p, p, p, u64, i64, i64,
    ]
    lib.recoil_tans_safe_run.restype = i64
    lib.recoil_tans_safe_run.argtypes = [
        p, p, i64, p, p, p, i64, p, i64, i64, i64,
    ]
    return lib


def _impl():
    """The bound library (built once), or None without a toolchain."""
    with _lock:
        impl = _state["impl"]
        if impl is not None:
            return impl or None  # False marks a failed build
        if _state["toolchain"] is None:
            _state["toolchain"] = _detect_toolchain()
        tc = _state["toolchain"]
    # Build outside the lock: compilation can take seconds and the
    # builder only touches process-wide caches idempotently.
    impl = _build_cc_lib() if tc == "cc" else None
    with _lock:
        if _state["impl"] is None:
            _state["impl"] = impl if impl is not None else False
        return _state["impl"] or None


def warm_up() -> str:
    """Build/load every compiled kernel and run each once on tiny
    inputs, so no compilation or ``dlopen`` lands inside a timed
    region.  Returns the kernel that will actually run
    (``"compiled"`` or ``"numpy"``).  Idempotent and cheap after the
    first call."""
    if _impl() is None:
        return "numpy"
    # rANS walk: one task, one live lane, one symbol.
    from repro.parallel.fused import plan_tasks
    from repro.parallel.simd import ThreadTask

    plan = plan_tasks(
        [ThreadTask(0, 1, 1, 1, 1, initial_states=np.array([L_BOUND]))], 1
    )
    tab = np.ones(2, dtype=np.uint64)
    for ids in (None, tab):
        rans_walk(plan, np.zeros(1, np.uint16), tab, tab, tab, ids, 1, 1,
                  np.zeros(1, np.uint8))
    ops = np.ones((1, 1), dtype=np.uint64)
    encode_sweep(np.full((2, 1), L_BOUND, np.uint64), ops, ops, ops, ops,
                 np.zeros((1, 1), bool), RENORM_BITS)
    z = np.zeros((1, 1), dtype=np.int64)
    tans_safe_run(z, z.copy(), z[0].copy(), z[0].copy(), z[0].copy(), 0,
                  np.zeros(4, np.int64), 0, 1)
    return "compiled"


# ---------------------------------------------------------------------------
# Kernel entry points used by the numpy kernels.  Each returns a
# "did it run compiled" verdict; False means "use the numpy loop".
# ---------------------------------------------------------------------------


#: ``recoil_rans_walk`` error codes -> DecodeError message templates
#: (``{t}``: task index, ``{p}``: stream position, ``{W}``: words).
_WALK_ERRORS = {
    1: "stream read out of range during renormalization "
       "(corrupt metadata or truncated payload; task {t}, pos {p})",
    2: "task {t}: start position {p} beyond stream of {W} words",
    3: "task {t}: output position out of range (corrupt task geometry)",
    4: "task {t}: model id outside the decode tables",
    5: "task {t}: activation lane outside the interleave width",
    6: "task {t}: stream exhausted in terminal drain",
    7: "task {t}: stream region not fully consumed (pos {p})",
    8: "task {t}: lanes did not return to the initial state L",
    9: "task {t}: geometry outside the kernel's supported range",
}


def rans_walk(
    plan,
    words: np.ndarray,
    freq: np.ndarray,
    bias: np.ndarray,
    sym: np.ndarray,
    ids: np.ndarray | None,
    slot_count: int,
    quant_bits: int,
    out: np.ndarray,
) -> tuple[int, int, int] | None:
    """Run the whole decode walk of every task in one C call.

    ``plan`` is a packed :class:`repro.parallel.fused.TaskPlan`;
    ``words`` the uint16 stream; ``freq``/``bias``/``sym`` the uint64
    slot-indexed gather tables (flat across models when ``ids``, the
    dense per-position model ids, is given); ``out`` the integer output.

    Returns ``(symbols_decoded, words_read, iterations)``, or None
    (nothing run) when no toolchain is up or the shape is unsupported
    (a non-integer or strided ``out``, more than 64 lanes).  Raises
    :class:`~repro.errors.DecodeError` on any corruption the numpy
    walk detects and on any bounds violation.
    """
    lib = _impl()
    T, K = plan.init.shape
    if lib is None or K > 64 or out.dtype.kind not in "ui":
        return None
    if not _contiguous(out):
        return None
    x = plan.init.copy()  # the kernel leaves the final states here
    info = np.zeros(5, dtype=np.int64)
    err = lib.recoil_rans_walk(
        plan.geom.ctypes.data, T, K, x.ctypes.data,
        plan.act_off.ctypes.data, plan.acts.ctypes.data, len(plan.acts),
        words.ctypes.data, len(words),
        freq.ctypes.data, bias.ctypes.data, sym.ctypes.data,
        min(len(freq), len(bias), len(sym)),
        None if ids is None else ids.ctypes.data,
        0 if ids is None else len(ids),
        slot_count, quant_bits, RENORM_BITS, L_BOUND,
        out.ctypes.data, len(out), out.dtype.itemsize, info.ctypes.data,
    )
    if err:
        from repro.errors import DecodeError

        raise DecodeError(_WALK_ERRORS[err].format(
            t=int(info[3]), p=int(info[4]), W=len(words)
        ))
    return int(info[0]), int(info[1]), int(info[2])


def _contiguous(*arrays: np.ndarray) -> bool:
    return all(a.flags["C_CONTIGUOUS"] for a in arrays)


def encode_sweep(
    X: np.ndarray,
    bb: np.ndarray,
    fb: np.ndarray,
    cb: np.ndarray,
    db: np.ndarray,
    need: np.ndarray,
    renorm_bits: int,
) -> bool:
    """Run one staged encode block compiled (twin of the sequential
    sweep in ``fused_encode.run_blocks``).  ``X[0]`` must hold the
    incoming states; on success ``X[1:]`` and ``need`` are filled."""
    lib = _impl()
    if lib is None or not _contiguous(X, need, bb, fb, cb, db):
        return False
    bg, W = need.shape
    lib.recoil_rans_encode_sweep(
        X.ctypes.data, bb.ctypes.data, fb.ctypes.data, cb.ctypes.data,
        db.ctypes.data, need.ctypes.data, renorm_bits, bg, W,
    )
    return True


def tans_safe_run(
    traj_pos: np.ndarray,
    traj_state: np.ndarray,
    pos: np.ndarray,
    state: np.ndarray,
    pk: np.ndarray,
    table_size: int,
    win24: np.ndarray,
    step: int,
    safe: int,
) -> int | None:
    """Run ``safe`` branch-free speculative steps compiled (twin of
    the inner loop of ``fused_speculative_pass``).  Returns the new
    step index, or None when the caller must run the numpy loop."""
    lib = _impl()
    if lib is None or not _contiguous(
        traj_pos, traj_state, pos, state, pk, win24
    ):
        return None
    return int(lib.recoil_tans_safe_run(
        traj_pos.ctypes.data, traj_state.ctypes.data, traj_pos.shape[1],
        pos.ctypes.data, state.ctypes.data, pk.ctypes.data, table_size,
        win24.ctypes.data, len(pos), step, safe,
    ))
