#!/usr/bin/env python3
"""Repository benchmark: one workload per invocation, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_decode --seed 1 --seconds 45 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and what
each per-layer metric is predicted to move):

- ``codec_offline`` -- in-process ``recoil_compress`` / ``recoil_shrink``
  / ``recoil_decompress`` round trips, no server;
- ``serve_decode`` -- open-loop ``OP_DECODE`` traffic against a
  ``recoil serve`` subprocess.

The program runs on its defaults.  The benchmark builds every input
from ``--seed``, checks every output, and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a ``{"report": ...}`` object
with provenance, the rate ladder and the full layer breakdown.  Exit
status is non-zero when an output mismatched (1, after printing) or when
the checkout has no ``src/repro`` package (2, without printing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("codec_offline", "serve_decode")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git(*args: str) -> str | None:
    # GIT_CEILING_DIRECTORIES keeps git from walking above the
    # checkout when the checkout itself is not a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, **extra) -> dict:
    import numpy as np

    from repro.parallel import compiled

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiled_toolchain": compiled.toolchain(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        **extra,
    }


def emit(report: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    """Print the report line and the result line; return the exit code."""
    print(json.dumps({"report": report}, default=str))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no repro package under {SRC}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    # SIGTERM unwinds like an exception, so every started server is
    # stopped by the ``finally`` blocks that own it.
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "codec_offline":
        import offline

        return offline.run(args)
    import served

    return served.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
