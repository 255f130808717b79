"""Deterministic fault injection for the serving stack.

The resilience layer (DESIGN.md §15) is only trustworthy if every
failure path it promises to survive can be *driven on demand*: a
poison request, a failed batch dispatch, a peer reset, a torn disk
write.
This module provides the registry of named **fault points** — the real
failure surfaces, instrumented in place — and seeded, context-scoped
**rules** that make a chosen point fail on the nth hit or with
probability ``p``.

Design rules:

- **Central registry.**  Every fault point is declared here
  (:data:`POINTS`), not at the instrumentation site, so the chaos
  suite can enumerate and drive all of them and a typo in a test or a
  ``--faults`` spec is an error, not a silent no-op.
- **Deterministic.**  A rule owns a private ``random.Random(seed)``;
  the same seed against the same call sequence fires at the same
  hits.  Nothing reads global random state.
- **Context-scoped.**  Rules arm inside a ``with faults.inject(...)``
  block and disarm on exit, even on error — a leaked rule cannot
  outlive its test.
- **Near-zero overhead when disabled.**  :func:`fire` and
  :func:`triggered` first test a module-level "any rules armed?" flag
  without taking the lock; production traffic pays one attribute load
  and one branch per instrumented operation (the points sit at coarse
  operations — a batch dispatch, a frame read — never inside kernel
  loops).
- **Realistic exceptions.**  Each point has a default exception type
  matching what the real failure would raise at that site (``OSError``
  for socket/disk surfaces, :class:`~repro.errors.FaultInjected`
  elsewhere), so the injected failure exercises the same ``except``
  clauses production failures do.
"""

from __future__ import annotations

import random
import threading
from contextlib import ExitStack, contextmanager

from repro.errors import FaultInjected

# ---------------------------------------------------------------------------
# Fault-point registry.
# ---------------------------------------------------------------------------

#: asset encode in :meth:`repro.serve.store.AssetStore.put`.
STORE_ENCODE = "store.encode"
#: batch hand-off in :meth:`repro.serve.service.RecoilService._run_batch`
#: (key ``"fused"`` for multi-request batches, ``"solo"`` for one-request
#: runs: lone requests and poison-isolation retries).
BATCH_DISPATCH = "batch.dispatch"
#: per-request execution on the dispatcher (keyed by asset name —
#: arm with ``key=`` to poison one asset's requests).
SERVE_REQUEST = "serve.request"
#: fused multi-buffer kernel entry (:func:`~repro.parallel.fused.fused_run_multi`).
KERNEL_EXEC = "kernel.exec"
#: a just-accepted connection fails before registration
#: (:class:`repro.serve.net.NetServer` accept loop).
NET_ACCEPT = "net.accept"
#: a connection's frame read fails mid-request (peer reset).
NET_READ = "net.read"
#: a connection's response write fails (peer reset).
NET_WRITE = "net.write"
#: the server stalls before writing a response (consumed via
#: :func:`triggered`, not :func:`fire`: the connection thread *sleeps*
#: for the configured stall duration instead of raising — the injected
#: failure is lateness, which drives client-side timeouts and the
#: drain/force-close machinery).
NET_STALL = "net.stall"
#: a chunk write while persisting an asset record
#: (:meth:`repro.serve.disk.DiskStore.put` — fires per chunk, so a
#: rule can tear the write at any byte offset).
DISK_WRITE = "disk.write"
#: an fsync on the durable-write path (record file, manifest, or the
#: containing directory after an atomic rename).
DISK_FSYNC = "disk.fsync"
#: an asset record read (hydration or recovery scan).
DISK_READ = "disk.read"
#: read-side bit rot: consumed via :func:`triggered` — the store
#: flips one bit in the bytes it just read (keyed by asset name), so
#: verification MUST catch it and quarantine the record.
DISK_CORRUPT = "disk.corrupt"


def _oserror(point: str) -> BaseException:
    return OSError(f"injected fault at {point}")


def _fault(point: str) -> BaseException:
    return FaultInjected(f"injected fault at {point}")


#: every known fault point: ``name -> (doc, default exception factory)``.
POINTS: dict[str, tuple[str, object]] = {
    STORE_ENCODE: ("asset encode in AssetStore.put", _fault),
    BATCH_DISPATCH: ("batch hand-off (key = fused | solo)", _fault),
    SERVE_REQUEST: ("per-request execution (key = asset name)", _fault),
    KERNEL_EXEC: ("fused multi-buffer kernel entry", _fault),
    NET_ACCEPT: ("accepted connection fails before registration", _oserror),
    NET_READ: ("connection frame read fails (peer reset)", _oserror),
    NET_WRITE: ("connection response write fails (peer reset)", _oserror),
    NET_STALL: ("server stalls before writing a response", _fault),
    DISK_WRITE: ("asset record chunk write (torn write)", _oserror),
    DISK_FSYNC: ("fsync on the durable-write path", _oserror),
    DISK_READ: ("asset record read (hydration/recovery)", _oserror),
    DISK_CORRUPT: ("read-side bit flip (key = asset name)", _fault),
}


def registered_points() -> dict[str, str]:
    """``{point: description}`` for every instrumented fault point."""
    return {name: doc for name, (doc, _) in POINTS.items()}


# ---------------------------------------------------------------------------
# Rules.
# ---------------------------------------------------------------------------


class FaultRule:
    """One armed rule against one fault point.

    Exactly one of ``p`` (fire each hit with probability ``p``) or
    ``nth`` (fire on the nth hit, 1-based) selects the trigger.
    ``times`` caps total fires (default: 1 for ``nth`` rules,
    unlimited for ``p`` rules).  ``key`` restricts the rule to
    :func:`fire` calls carrying an equal key (poison targeting).
    Counters (``hits``, ``fires``) are readable after the run for
    assertions.
    """

    def __init__(
        self,
        point: str,
        p: float | None = None,
        nth: int | None = None,
        times: int | None = None,
        key: str | None = None,
        seed: int = 0,
        exc=None,
    ) -> None:
        if point not in POINTS:
            known = ", ".join(sorted(POINTS))
            raise ValueError(
                f"unknown fault point {point!r}; known points: {known}"
            )
        if (p is None) == (nth is None):
            raise ValueError("exactly one of p= or nth= must be given")
        if p is not None and not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        if nth is not None and nth < 1:
            raise ValueError(f"nth must be >= 1, got {nth}")
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        self.point = point
        self.p = p
        self.nth = nth
        self.times = times if times is not None else (1 if nth else None)
        self.key = key
        self.seed = seed
        self._exc = exc if exc is not None else POINTS[point][1]
        self._rng = random.Random(seed)
        self.hits = 0
        self.fires = 0

    # Called under the module lock.
    def _check(self, key: str | None) -> bool:
        if self.key is not None and key != self.key:
            return False
        if self.times is not None and self.fires >= self.times:
            return False
        self.hits += 1
        if self.nth is not None:
            fire = self.hits == self.nth
        else:
            fire = self._rng.random() < self.p
        if fire:
            self.fires += 1
        return fire

    def make_exception(self) -> BaseException:
        exc = self._exc
        if isinstance(exc, type) and issubclass(exc, BaseException):
            return exc(f"injected fault at {self.point}")
        return exc(self.point)

    def describe(self) -> dict:
        return {
            "point": self.point,
            "trigger": (
                {"p": self.p, "seed": self.seed}
                if self.p is not None
                else {"nth": self.nth}
            ),
            "times": self.times,
            "key": self.key,
            "hits": self.hits,
            "fires": self.fires,
        }

    def __repr__(self) -> str:
        trig = f"p={self.p}" if self.p is not None else f"nth={self.nth}"
        return (
            f"FaultRule({self.point!r}, {trig}, times={self.times}, "
            f"key={self.key!r}, hits={self.hits}, fires={self.fires})"
        )


_lock = threading.Lock()
_rules: list[FaultRule] = []
#: lock-free fast-path flag: True iff any rule is armed.
_armed = False


def enabled() -> bool:
    """Whether any fault rule is currently armed (lock-free)."""
    return _armed


@contextmanager
def inject(
    point: str,
    p: float | None = None,
    nth: int | None = None,
    times: int | None = None,
    key: str | None = None,
    seed: int = 0,
    exc=None,
):
    """Arm one rule for the dynamic extent of the ``with`` block.

    Yields the :class:`FaultRule` so callers can assert on its
    ``hits``/``fires`` counters.  Multiple rules (same or different
    points) may be armed concurrently; each keeps private counters
    and a private seeded RNG.
    """
    rule = FaultRule(
        point, p=p, nth=nth, times=times, key=key, seed=seed, exc=exc
    )
    global _armed
    with _lock:
        _rules.append(rule)
        _armed = True
    try:
        yield rule
    finally:
        with _lock:
            try:
                _rules.remove(rule)
            except ValueError:  # pragma: no cover - double-exit guard
                pass
            _armed = bool(_rules)


def _consume(point: str, key: str | None) -> FaultRule | None:
    with _lock:
        for rule in _rules:
            if rule.point == point and rule._check(key):
                return rule
    return None


def fire(point: str, key: str | None = None) -> None:
    """Raise the armed rule's exception if one triggers at ``point``.

    The no-rules fast path is a single module-global test.
    """
    if not _armed:
        return
    rule = _consume(point, key)
    if rule is not None:
        raise rule.make_exception()


def triggered(point: str, key: str | None = None) -> bool:
    """Consume and report a verdict instead of raising.

    Used where the failure is not an exception at the evaluation site
    — e.g. ``net.stall`` sleeps instead of raising, and
    ``disk.corrupt`` flips a bit in the bytes just read.
    """
    if not _armed:
        return False
    return _consume(point, key) is not None


def snapshot() -> list[dict]:
    """Describe every armed rule (point, trigger, counters)."""
    with _lock:
        return [rule.describe() for rule in _rules]


def reset() -> None:
    """Disarm everything (test hygiene)."""
    global _armed
    with _lock:
        _rules.clear()
        _armed = False


# ---------------------------------------------------------------------------
# Spec strings (the CLI's ``--faults`` knob).
# ---------------------------------------------------------------------------


def parse_spec(spec: str) -> list[dict]:
    """Parse a chaos spec into :func:`inject` keyword dicts.

    Format: comma-separated rules, each
    ``point[:opt=value]*`` with options ``p`` (float), ``nth``,
    ``times``, ``seed`` (ints) and ``key`` (string), e.g.::

        batch.dispatch:nth=3:key=fused,net.read:p=0.05:seed=7

    :raises ValueError: malformed spec or unknown point/option.
    """
    rules: list[dict] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        point = fields[0].strip()
        kwargs: dict = {"point": point}
        for opt in fields[1:]:
            if "=" not in opt:
                raise ValueError(
                    f"malformed fault option {opt!r} in {part!r} "
                    "(expected opt=value)"
                )
            name, _, value = opt.partition("=")
            name = name.strip()
            value = value.strip()
            if name == "p":
                kwargs["p"] = float(value)
            elif name in ("nth", "times", "seed"):
                kwargs[name] = int(value)
            elif name == "key":
                kwargs["key"] = value
            else:
                raise ValueError(
                    f"unknown fault option {name!r} in {part!r}"
                )
        # Validate eagerly so a bad spec fails before anything runs.
        FaultRule(**kwargs)
        rules.append(kwargs)
    if not rules:
        raise ValueError(f"empty fault spec {spec!r}")
    return rules


def inject_spec(spec: str) -> ExitStack:
    """Arm every rule in ``spec``; returns the controlling
    :class:`~contextlib.ExitStack` (close it to disarm)."""
    stack = ExitStack()
    try:
        for kwargs in parse_spec(spec):
            stack.enter_context(inject(**kwargs))
    except BaseException:
        stack.close()
        raise
    return stack
