"""Fused wide-lane rANS decode: the task planner and both kernels.

:func:`plan_tasks` packs a batch of decoder tasks into flat arrays
(:class:`TaskPlan`) once; :func:`fused_run` and :func:`fused_run_multi`
then decode it on one of two kernels with the same walk semantics
(DESIGN.md §7), bit-identical output and identical
:class:`~repro.parallel.simd.EngineStats`:

- **compiled** (the default, DESIGN.md §19) — one C call walks every
  task from top to bottom, activations, commit ranges and terminal
  drain included, bounds-checking every memory access;
- **numpy** (the fallback, DESIGN.md §8) — all ``M`` tasks advance in
  lockstep as one ``(M, K)`` state matrix, one interleave group per
  iteration.  A **head** of generic masked iterations (partial first
  groups, lane activations, commit-range boundaries) and a **tail**
  (the last groups, then the terminal drain) surround a **steady
  state** — every task alive, fully activated and committed — that
  runs a straight-line sequence of in-place vectorized operations
  over arena buffers (:class:`~repro.parallel.buffers.ScratchArena`)
  with single-gather slot-indexed tables
  (:class:`~repro.rans.adaptive.DecodeTables`).  The steady window is
  the intersection of all tasks' windows, computed analytically
  before the loop, so the steady loop carries no phase checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro import faults
from repro.errors import DecodeError
from repro.parallel import compiled
from repro.parallel.buffers import ScratchArena
from repro.parallel.simd import EngineStats, ThreadTask
from repro.rans.adaptive import AdaptiveModelProvider
from repro.rans.constants import L_BOUND, RENORM_BITS


def _plan_phases(plan: "TaskPlan") -> tuple[int, int, int]:
    """Analytic iteration geometry of the numpy lockstep loop.

    Returns ``(R_total, H, S)``: the global loop length and the global
    steady-state window ``[H, S)`` (empty when ``H >= S``).

    Task ``t`` is *steady* at iteration ``r`` (walking group
    ``g = g_hi - r``) when:

    - every lane is active: ``r >= act_end`` (all activations
      installed; tasks whose lanes can never all activate are never
      steady),
    - the group is full and fully committed:
      ``g*K + 1 >= max(walk_lo, commit_lo)`` and
      ``g*K + K <= min(walk_hi, commit_hi)``.
    """
    K, T = plan.lanes, len(plan)
    hi, lo, c_hi, c_lo = plan.geom[:, 1:5].T
    g_hi = (hi - 1) // K
    live = hi >= lo  # degenerate tasks are dead on arrival
    R_total = int(np.where(live, g_hi - (lo - 1) // K + 1, 0).max())
    owner = np.repeat(np.arange(T), np.diff(plan.act_off))
    seen = plan.geom[:, 8].astype(bool)[:, None].repeat(K, axis=1)
    seen[owner, plan.acts[:, 1]] = True
    act_end = np.zeros(T, dtype=np.int64)
    np.maximum.at(act_end, owner, plan.acts[:, 0] + 1)
    g_max = (np.minimum(hi, c_hi) - K) // K  # last group fully below
    g_min = (np.maximum(lo, c_lo) + K - 2) // K  # first fully above
    starts = np.maximum(act_end, g_hi - g_max)
    ends = g_hi - g_min + 1
    if (live & seen.all(axis=1) & (g_max >= g_min) & (ends > starts)).all():
        return R_total, int(starts.max()), int(ends.min())
    return R_total, 0, 0  # some task never reaches steady state


#: columns of :attr:`TaskPlan.geom` (``has_init``: ``initial_states`` set).
GEOM_COLUMNS = (
    "start_pos", "walk_hi", "walk_lo", "commit_hi", "commit_lo",
    "global_offset", "terminal_pos", "check_terminal", "has_init",
)


@dataclass(frozen=True)
class TaskPlan:
    """A task list packed for the decode kernels (DESIGN.md §19).

    ``geom`` is the ``(T, 9)`` int64 task table (:data:`GEOM_COLUMNS`);
    ``init`` the ``(T, K)`` initial lane states (``L`` where lanes wait
    for an activation).  Activations are CSR: task ``t`` owns the
    ``(iteration, lane, state)`` rows ``acts[act_off[t]:act_off[t+1]]``,
    ordered by the walk iteration that installs them (ties keep list
    order, so a later duplicate wins exactly as in the numpy loop).
    """

    lanes: int
    geom: np.ndarray
    init: np.ndarray
    act_off: np.ndarray
    acts: np.ndarray

    def __len__(self) -> int:
        return len(self.geom)


def plan_tasks(tasks: list[ThreadTask], lanes: int) -> TaskPlan:
    """Validate and pack ``tasks`` for :func:`repro.parallel.compiled.rans_walk`.

    Raises :class:`DecodeError` for an activation outside its walk
    range or the interleave width, or a mis-shaped ``initial_states``.
    Both kernels consume the plan; the C kernel still re-checks
    everything that indexes memory (DESIGN.md §19).
    """
    K = lanes
    T = len(tasks)
    if K < 1:
        raise DecodeError(f"interleave width must be >= 1, got {K}")
    try:
        geom = np.array(
            [
                (t.start_pos, t.walk_hi, t.walk_lo, t.commit_hi,
                 t.commit_lo, t.global_offset, t.terminal_pos,
                 bool(t.check_terminal), t.initial_states is not None)
                for t in tasks
            ],
            dtype=np.int64,
        ).reshape(T, len(GEOM_COLUMNS))
        per_task = [
            np.asarray(t.activations, dtype=np.int64).reshape(-1, 3)
            for t in tasks
        ]
    except OverflowError as exc:
        raise DecodeError(f"task geometry out of range: {exc}") from exc
    acts = np.concatenate(per_task) if T else np.empty((0, 3), np.int64)
    init = np.full((T, K), L_BOUND, dtype=np.uint64)
    for ti in np.flatnonzero(geom[:, 8]):
        st = np.asarray(tasks[ti].initial_states, dtype=np.uint64)
        if st.shape != (K,):
            raise DecodeError(
                f"task {ti}: initial_states must have shape ({K},)"
            )
        init[ti] = st

    act_off = np.cumsum([0] + [len(a) for a in per_task], dtype=np.int64)
    owner = np.repeat(np.arange(T), np.diff(act_off))
    idx, lane = acts[:, 0], acts[:, 1]
    hi, lo = geom[owner, 1], geom[owner, 2]
    bad = (idx < lo) | (idx > hi) | (lane < 0) | (lane >= K)
    if bad.any():
        i = int(np.argmax(bad))
        raise DecodeError(
            f"task {owner[i]}: activation (index {idx[i]}, lane "
            f"{lane[i]}) outside walk range [{lo[i]}, {hi[i]}] or "
            f"lanes [0, {K})"
        )
    it = (hi - 1) // K - (idx - 1) // K
    order = np.lexsort((it, owner))
    return TaskPlan(
        lanes=K,
        geom=geom,
        init=init,
        act_off=act_off,
        acts=np.column_stack((it, lane, acts[:, 2]))[order],
    )


def fused_run(
    provider: AdaptiveModelProvider,
    lanes: int,
    words: np.ndarray,
    tasks: list[ThreadTask],
    out: np.ndarray,
    arena: ScratchArena,
    kernel: str = "compiled",
) -> EngineStats:
    """Decode every task into ``out`` (same contract as
    :meth:`~repro.parallel.simd.LaneEngine.run`).

    :param provider: model provider shared by all tasks.
    :param lanes: interleaved lanes per task (``K``).
    :param words: the 16-bit word stream all tasks read from.
    :param tasks: decode tasks with disjoint commit ranges.
    :param out: preallocated output of the full sequence length; each
        position is written by exactly one task.
    :param arena: caller-owned scratch buffers (not thread-safe —
        one arena per concurrently running kernel, DESIGN.md §9).
    :param kernel: ``"compiled"`` (default) — the whole walk in one
        C call (:func:`repro.parallel.compiled.rans_walk`) when a
        toolchain is up, silently numpy otherwise — or ``"numpy"``,
        the three-phase lockstep loop.  Bit-identical output and
        :class:`EngineStats` either way.
    :returns: work counters (iterations, symbols, words read).
    :raises DecodeError: task geometry inconsistent with the stream
        (start/activation out of range), the bitstream exhausting
        mid-walk, or a terminal drain that does not return every lane
        to the initial state ``L``.
    """
    return _run_plan(
        provider, words, plan_tasks(tasks, lanes), out, arena, kernel
    )


def _run_plan(provider, words, plan, out, arena, kernel) -> EngineStats:
    """Decode a packed plan: one C call for the whole walk, or the
    numpy loop when asked for or when the compiled kernel cannot run."""
    if len(plan) == 0:
        return EngineStats()
    if kernel == "compiled":
        tables = provider.decode_tables
        ran = compiled.rans_walk(
            plan, np.ascontiguousarray(words, dtype=np.uint16),
            tables.freq_slot.ravel(), tables.bias_slot.ravel(),
            tables.sym_u64.ravel(),
            None if provider.is_static
            else provider.dense_model_ids(len(out)),
            tables.slot_count, provider.quant_bits, out,
        )
        if ran is not None:
            symbols, words_read, iterations = ran
            return EngineStats(
                iterations=iterations, symbols_decoded=symbols,
                words_read=words_read, tasks=len(plan),
                max_task_iterations=iterations,
            )
    return _numpy_walk(provider, words, plan, out, arena)


def _numpy_walk(provider, words, plan, out, arena) -> EngineStats:
    """The numpy lockstep loop: head, steady window, tail, drain."""
    K, T = plan.lanes, len(plan)
    stats = EngineStats(tasks=T)
    n = provider.quant_bits
    n64 = np.uint64(n)
    rb = np.uint64(RENORM_BITS)
    slot_mask = np.uint64((1 << n) - 1)
    lbound = np.uint64(L_BOUND)
    words = np.asarray(words, dtype=np.uint16)
    W = len(words)

    tables = provider.decode_tables
    slot_count = np.uint64(tables.slot_count)
    static = provider.is_static
    if static:
        s1 = tables.sym_slot[0]
        f1 = tables.freq_slot[0]
        b1 = tables.bias_slot[0]
    else:
        s_flat = tables.sym_slot.ravel()
        f_flat = tables.freq_slot.ravel()
        b_flat = tables.bias_slot.ravel()
        ids_dense = provider.dense_model_ids(len(out))

    # One uint64 copy of the stream, made once per run, so every
    # renormalization gather lands directly in the state dtype.
    words_u64 = arena.get_at_least("words_u64", W, np.uint64)[:W]
    words_u64[:] = words

    # ---- task state -----------------------------------------------------
    geom = plan.geom
    late = np.flatnonzero(geom[:, 0] >= W)
    if len(late):
        ti = int(late[0])
        raise DecodeError(
            f"task {ti}: start position {geom[ti, 0]} beyond "
            f"stream of {W} words"
        )
    pos = geom[:, 0].copy()
    cur = geom[:, 1].copy()
    lo, c_hi, c_lo, offs = geom[:, 2], geom[:, 3], geom[:, 4], geom[:, 5]
    x = arena.get("x", (T, K), np.uint64)
    x[:] = plan.init
    active = arena.get("active", (T, K), bool)
    active[:] = geom[:, 8].astype(bool)[:, None]

    # ---- activation schedule: by iteration, ties in task/list order ----
    order = np.argsort(plan.acts[:, 0], kind="stable")
    a_iter, a_lane, a_state = plan.acts[order].T
    a_task = np.repeat(np.arange(T), np.diff(plan.act_off))[order]
    a_state = a_state.astype(np.uint64)
    a_ptr = 0

    R_total, H, S = _plan_phases(plan)

    lane_col = np.arange(K, dtype=np.int64)[None, :]
    out_dtype = out.dtype
    per_task_iters = np.zeros(T, dtype=np.int64)
    symbols_decoded = 0
    words_read = 0
    r = 0

    # ---- generic masked iteration (head and tail phases) ---------------
    def generic_until(r: int, r_stop: int) -> int:
        nonlocal a_ptr, symbols_decoded, words_read
        while r < r_stop:
            alive = cur >= lo
            if not alive.any():
                return r_stop  # all dead; skip straight to the end
            while a_ptr < len(a_iter) and a_iter[a_ptr] <= r:
                end = a_ptr
                while end < len(a_iter) and a_iter[end] <= r:
                    end += 1
                x[a_task[a_ptr:end], a_lane[a_ptr:end]] = a_state[a_ptr:end]
                active[a_task[a_ptr:end], a_lane[a_ptr:end]] = True
                a_ptr = end

            base = ((cur - 1) // K) * K
            sl = np.maximum(lo, base + 1)
            la = (sl - base - 1)[:, None]
            lb = (cur - base - 1)[:, None]
            part = (
                (lane_col >= la)
                & (lane_col <= lb)
                & alive[:, None]
                & active
            )

            # Eq. 4 reads before decoding, descending lane order.
            need = part & (x < lbound)
            counts = need.sum(axis=1)
            if counts.any():
                rank = need[:, ::-1].cumsum(axis=1)[:, ::-1] - need
                rpos = pos[:, None] - rank
                src = rpos[need]
                if src.min() < 0 or src.max() >= W:
                    raise DecodeError(
                        "stream read out of range during renormalization "
                        "(corrupt metadata or truncated payload)"
                    )
                x[need] = (x[need] << rb) | words_u64[src]
                np.subtract(pos, counts, out=pos)
                words_read += int(counts.sum())

            # Eq. 2 via the slot-indexed tables.
            slot = x & slot_mask
            if static:
                sym = s1[slot]
                new_x = f1[slot] * (x >> n64) + b1[slot]
            else:
                g_idx = offs[:, None] + base[:, None] + lane_col
                np.clip(g_idx, 0, max(len(ids_dense) - 1, 0), out=g_idx)
                flat = ids_dense[g_idx] * slot_count + slot
                sym = s_flat[flat]
                new_x = f_flat[flat] * (x >> n64) + b_flat[flat]
            np.copyto(x, new_x, where=part)

            local_index = base[:, None] + lane_col + 1
            commit = (
                part
                & (local_index >= c_lo[:, None])
                & (local_index <= c_hi[:, None])
            )
            if commit.any():
                out_pos = offs[:, None] + local_index - 1
                out[out_pos[commit]] = sym[commit].astype(
                    out_dtype, copy=False
                )

            symbols_decoded += int(part.sum())
            per_task_iters[alive] += 1
            np.copyto(cur, sl - 1, where=alive)
            r += 1
        return r

    r = generic_until(r, min(H, R_total) if H < S else R_total)

    # ---- steady state ---------------------------------------------------
    if H < S and r == H:
        steady_iters = S - H
        out_idx = arena.get("out_idx", (T, K), np.int64)

        # cur is a multiple of K for every task here (groups are full);
        # output positions advance by exactly -K per iteration.
        out_idx[:] = (offs + cur - K)[:, None] + lane_col
        pos_sum_before = int(pos.sum())

        _numpy_steady(
            arena, x, pos, out, out_idx, words_u64, steady_iters,
            static, tables, slot_mask, lbound, n64, rb, slot_count,
            None if static else ids_dense,
            (f1, b1, s1) if static else (f_flat, b_flat, s_flat),
            T, K,
        )

        words_read += pos_sum_before - int(pos.sum())
        symbols_decoded += steady_iters * T * K
        per_task_iters += steady_iters
        cur -= K * steady_iters
        r = S

    r = generic_until(r, R_total)

    stats.iterations = r
    stats.symbols_decoded = symbols_decoded
    stats.words_read = words_read
    stats.max_task_iterations = int(per_task_iters.max()) if T else 0

    # ---- terminal drain & checks ---------------------------------------
    for ti in np.flatnonzero(geom[:, 7]):
        terminal = int(geom[ti, 6])
        p = int(pos[ti])
        for lane in range(K - 1, -1, -1):
            xv = int(x[ti, lane])
            while xv < L_BOUND:
                if p <= terminal:
                    raise DecodeError(
                        f"task {ti}: stream exhausted in terminal drain"
                    )
                xv = (xv << RENORM_BITS) | int(words[p])
                p -= 1
                stats.words_read += 1
            x[ti, lane] = xv
        if p != terminal:
            raise DecodeError(
                f"task {ti}: stream region not fully consumed "
                f"(pos {p}, expected {terminal})"
            )
        if np.any(x[ti] != L_BOUND):
            raise DecodeError(
                f"task {ti}: lanes did not return to the initial state L"
            )
    return stats


def _numpy_steady(
    arena, x, pos, out, out_idx, words_u64, steady_iters,
    static, tables, slot_mask, lbound, n64, rb, slot_count,
    ids_dense, gather_tables, T, K,
):
    """The numpy steady-state loop.

    Mutates ``x``, ``pos``, ``out`` and ``out_idx`` in place.
    """
    need = arena.get("need", (T, K), bool)
    cbuf = arena.get("cbuf", (T, K), np.int64)
    rankb = arena.get("rankb", (T, K), np.int64)
    rposb = arena.get("rposb", (T, K), np.int64)
    wbuf = arena.get("wbuf", (T, K), np.uint64)
    tmp = arena.get("tmp", (T, K), np.uint64)
    slot = arena.get("slot", (T, K), np.uint64)
    fbuf = arena.get("fbuf", (T, K), np.uint64)
    bbuf = arena.get("bbuf", (T, K), np.uint64)
    symb = arena.get("symb", (T, K), tables.sym_slot.dtype)
    if not static:
        idsb = arena.get("idsb", (T, K), np.uint64)
        flatb = arena.get("flatb", (T, K), np.uint64)

    # Hoist everything hoistable: bound methods skip numpy's
    # Python-level dispatch wrappers, and the column views stay
    # valid because every buffer is written in place.
    counts = cbuf[:, K - 1]
    counts_col = cbuf[:, K - 1 :]
    pos_col = pos[:, None]
    need_any = need.any
    need_cumsum = need.cumsum
    pos_min = pos.min
    take_words = words_u64.take
    if static:
        f1, b1, s1 = gather_tables
        take_f, take_b, take_s = f1.take, b1.take, s1.take
    else:
        f_flat, b_flat, s_flat = gather_tables
        take_ids = ids_dense.take
        take_f, take_b, take_s = f_flat.take, b_flat.take, s_flat.take

    for _ in range(steady_iters):
        # Eq. 4: renormalization reads, descending lane order.
        np.less(x, lbound, out=need)
        if need_any():
            need_cumsum(axis=1, out=cbuf)
            np.subtract(counts_col, cbuf, out=rankb)
            np.subtract(pos_col, rankb, out=rposb)
            np.subtract(pos, counts, out=pos)
            if pos_min() < -1:
                raise DecodeError(
                    "bitstream exhausted during renormalization"
                )
            take_words(rposb, out=wbuf, mode="clip")
            np.left_shift(x, rb, out=tmp)
            np.bitwise_or(tmp, wbuf, out=tmp)
            np.copyto(x, tmp, where=need)
        # Eq. 2: decode all M*K lanes with single-gather tables.
        np.bitwise_and(x, slot_mask, out=slot)
        np.right_shift(x, n64, out=tmp)
        if static:
            take_f(slot, out=fbuf)
            take_b(slot, out=bbuf)
            take_s(slot, out=symb)
        else:
            take_ids(out_idx, out=idsb)
            np.multiply(idsb, slot_count, out=flatb)
            np.add(flatb, slot, out=flatb)
            take_f(flatb, out=fbuf)
            take_b(flatb, out=bbuf)
            take_s(flatb, out=symb)
        np.multiply(fbuf, tmp, out=x)
        np.add(x, bbuf, out=x)
        # Commit the whole group of every task.
        out[out_idx] = symb
        np.subtract(out_idx, K, out=out_idx)


# ---------------------------------------------------------------------------
# Multi-buffer fusion: tasks spanning several independent word streams.
# ---------------------------------------------------------------------------


def geometry_bucket(tasks, lanes: int) -> int:
    """Walk-geometry bucket for fusion grouping.

    The fused kernel's steady-state fast path covers the intersection
    of all tasks' steady windows (DESIGN.md §8): fusing a
    capacity-1 decode (one task walking the whole sequence) with a
    capacity-64 decode (64 short tasks) collapses that intersection
    and — worse — keeps the batch at full width long after the short
    tasks die.  Decodes therefore only fuse when their longest task
    walks a similar number of interleave groups; this returns the
    power-of-two band of that length (≤2x spread within a bucket), so
    same-shape decodes always share a bucket while pathologically
    unequal ones never do.  Used by the serve batcher and the
    multi-frame decoder.
    """
    longest = max(
        (t.walk_hi - t.walk_lo) // lanes + 1 for t in tasks
    )
    return longest.bit_length()


@dataclass
class StreamSegment:
    """One independent decode joining a fused multi-buffer run.

    A segment is exactly the argument triple of :func:`fused_run` —
    a word stream, the tasks walking it, and the output length — for
    one logical request.  :func:`fused_run_multi` concatenates many
    segments into a single virtual stream/output so their tasks
    advance together in one ``(sum(T_i) * K,)``-wide kernel call
    (DESIGN.md §12: cross-request fusion).
    """

    words: np.ndarray
    tasks: list[ThreadTask] = field(repr=False)
    num_symbols: int
    #: ``tasks`` already packed by :func:`plan_tasks` (the serving path
    #: caches one per shrunk variant); packed on demand when None.
    plan: TaskPlan | None = field(default=None, repr=False)


@dataclass
class MultiRunResult:
    """Output of :func:`fused_run_multi`."""

    out: np.ndarray  # one flat output covering every segment
    slices: list[slice]  # per-segment views into ``out``
    stats: EngineStats

    def segment_outputs(self) -> list[np.ndarray]:
        return [self.out[s] for s in self.slices]


def _stack_words(
    segments: list[StreamSegment],
) -> tuple[np.ndarray, list[int], list[slice], int]:
    """Concatenate the segments' word streams (a word-buffer object
    shared by several segments once) and lay their outputs back to
    back: ``(words, word_bases, out_slices, total_symbols)``."""
    arrays: dict[int, np.ndarray] = {}  # id(words) -> stream, in order
    bases: dict[int, int] = {}
    word_bases, out_slices, n_words, n_syms = [], [], 0, 0
    for seg in segments:
        if id(seg.words) not in bases:
            arrays[id(seg.words)] = np.asarray(seg.words, dtype=np.uint16)
            bases[id(seg.words)] = n_words
            n_words += len(arrays[id(seg.words)])
        word_bases.append(bases[id(seg.words)])
        out_slices.append(slice(n_syms, n_syms + seg.num_symbols))
        n_syms += seg.num_symbols
    streams = list(arrays.values())
    if len(streams) == 1:
        words = streams[0]
    else:
        words = np.concatenate(streams or [np.empty(0, np.uint16)])
    return words, word_bases, out_slices, n_syms


def fuse_segments(
    segments: list[StreamSegment],
) -> tuple[np.ndarray, list[ThreadTask], list[slice], int]:
    """Rebase many segments onto one concatenated stream and output.

    Word streams are stacked back to back and every task's stream
    positions (``start_pos``, ``terminal_pos``) shift by its segment's
    word base; output positions shift via ``global_offset``.  Local
    walk/commit indices and activation entries are untouched — the
    walk is defined in task-local coordinates (DESIGN.md §7), so a
    rebased task is indistinguishable from a native one.

    Segments sharing one word-buffer *object* (the dominant serving
    case: many concurrent requests for the same asset) share one copy
    in the concatenation — their tasks simply rebase onto the same
    word base, like multiple tasks of a single stream.

    Returns ``(words, tasks, out_slices, total_symbols)``.
    """
    words, word_bases, out_slices, total = _stack_words(segments)
    fused_tasks = [
        replace(
            t,
            start_pos=t.start_pos + word_base,
            global_offset=t.global_offset + out.start,
            terminal_pos=t.terminal_pos + word_base,
        )
        for seg, word_base, out in zip(segments, word_bases, out_slices)
        for t in seg.tasks
    ]
    return words, fused_tasks, out_slices, total


def _fuse_plans(
    plans: list[TaskPlan],
    word_bases: list[int],
    out_slices: list[slice],
    lanes: int,
) -> TaskPlan:
    """The :class:`TaskPlan` twin of :func:`fuse_segments`' rebasing."""
    if len(plans) <= 1:  # a lone segment sits at word and output 0
        return plans[0] if plans else plan_tasks([], lanes)
    sizes = [len(p) for p in plans]
    geom = np.concatenate([p.geom for p in plans])
    wb = np.repeat(np.asarray(word_bases, dtype=np.int64), sizes)
    geom[:, 0] += wb  # start_pos
    geom[:, 6] += wb  # terminal_pos
    geom[:, 5] += np.repeat([s.start for s in out_slices], sizes)
    counts = np.concatenate([np.diff(p.act_off) for p in plans])
    return TaskPlan(
        lanes=lanes,
        geom=geom,
        init=np.concatenate([p.init for p in plans]),
        act_off=np.concatenate([[0], np.cumsum(counts)]),
        acts=np.concatenate([p.acts for p in plans]),
    )


def fused_run_multi(
    provider: AdaptiveModelProvider,
    lanes: int,
    segments: list[StreamSegment],
    arena: ScratchArena,
    out_dtype=None,
    kernel: str = "compiled",
) -> MultiRunResult:
    """Decode many independent (words, tasks) segments as ONE kernel run.

    This is the serving-side payoff of the fused layout: ``S``
    requests of ``T_i`` tasks each become a single ``(sum(T_i), K)``
    state matrix, so per-iteration interpreter overhead is paid once
    per *batch* instead of once per request.  All segments must share
    ``provider`` and ``lanes``; multi-segment fusion requires a
    *static* provider (adaptive model ids are positional in the
    original sequence and do not survive output rebasing — dispatch
    those one segment at a time).

    Stream-underflow detection is per concatenated stream: a corrupt
    segment that under-reads past its own region is caught by the
    terminal drain (``terminal_pos`` check) rather than immediately at
    the read, exactly like a corrupt task inside a single stream.

    :param segments: independent decodes to fuse; shared word-buffer
        objects are concatenated only once.
    :param arena: caller-owned scratch buffers (DESIGN.md §9).
    :param out_dtype: output dtype (default: the provider's).
    :param kernel: as for :func:`fused_run`.  Either kernel runs the
        segments' packed :class:`TaskPlan` s, rebased onto the
        concatenated stream (no per-task rebuilding).
    :returns: one freshly allocated flat output plus per-segment
        slices and aggregate work counters.
    :raises DecodeError: more than one segment with a non-static
        provider (positional model ids do not survive rebasing), or
        any corruption :func:`fused_run` detects.
    :raises FaultInjected: the ``kernel.exec`` fault point is armed
        and fired (chaos runs only; :mod:`repro.faults`).
    """
    faults.fire(faults.KERNEL_EXEC)
    if len(segments) > 1 and not provider.is_static:
        raise DecodeError(
            "multi-segment fusion requires a static model provider; "
            "adaptive-model decodes must be dispatched individually"
        )
    if out_dtype is None:
        out_dtype = provider.out_dtype
    words, word_bases, out_slices, total = _stack_words(segments)
    plans = [
        seg.plan if seg.plan is not None and seg.plan.lanes == lanes
        else plan_tasks(seg.tasks, lanes)
        for seg in segments
    ]
    # Results escape to callers, so the output is a fresh allocation
    # (arena rule 2, DESIGN.md §9); segment views share this buffer.
    out = np.empty(total, dtype=out_dtype)
    stats = _run_plan(
        provider, words, _fuse_plans(plans, word_bases, out_slices, lanes),
        out, arena, kernel,
    )
    return MultiRunResult(out=out, slices=out_slices, stats=stats)
