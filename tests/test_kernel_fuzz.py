"""Hostile containers through the compiled (default) decode kernel.

``OP_PUT`` takes containers from the network and the C kernel runs
in-process, so a container that passes ``parse_container`` must never
make the kernel read or write out of bounds (DESIGN.md §19).  Golden
corpus and freshly encoded containers are bit-flipped and truncated,
then decoded through ``recoil_decompress`` and through ``OP_PUT`` →
``OP_DECODE`` against a live server.  Every outcome must be a typed
:class:`~repro.errors.ReproError` or exactly the numpy kernel's output
for the same bytes.

The fuzz loop runs in a subprocess so that a signal death (a wild
write, a sanitizer trap) fails the test instead of killing pytest.
It runs three times: on the normal build, and on copies of the C
source built here with ``-fsanitize=undefined
-fsanitize-undefined-trap-on-error`` (UBSan) or ``-fsanitize=address``
(ASan, with the compiler's ``libasan`` preloaded into the subprocess;
skipped when the compiler has no ASan runtime), each swapped in for
the cached library by replacing the builder.  Every mutant also goes
through the metadata parser first, so the fuzz covers it too.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import needs_compiled

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

FUZZ_SCRIPT = r'''
import atexit, ctypes, os, shutil, subprocess, sys, tempfile
import numpy as np

from repro.core.api import RecoilCodec, recoil_decompress
from repro.core.container import parse_container
from repro.core.decoder import RecoilDecoder
from repro.errors import ReproError
from repro.parallel import compiled
from repro.rans.model import SymbolModel
from repro.serve import RecoilService
from repro.serve.client import RecoilClient
from repro.serve.net import NetConfig, NetServer

from golden_cases import rans_cases

mode, golden_dir = sys.argv[1], sys.argv[2]
SANITIZE = {
    "ubsan": ["-fsanitize=undefined", "-fsanitize-undefined-trap-on-error"],
    "asan": ["-fsanitize=address", "-fno-omit-frame-pointer"],
}
if mode in SANITIZE:
    build = tempfile.mkdtemp()
    atexit.register(shutil.rmtree, build, True)
    src = os.path.join(build, "kernels.c")
    lib = os.path.join(build, f"kernels-{mode}.so")
    with open(src, "w") as fh:
        fh.write(compiled._C_SOURCE)
    # The compiler itself runs without the preloaded runtime.
    cc_env = {k: v for k, v in os.environ.items() if k != "LD_PRELOAD"}
    subprocess.run(
        [compiled._find_cc(), "-O1", "-shared", "-fPIC", *SANITIZE[mode],
         "-o", lib, src],
        check=True, capture_output=True, env=cc_env,
    )
    compiled._build_cc_lib = lambda: compiled._bind(ctypes.CDLL(lib))
    compiled.reset_for_tests()
if mode == "asan":  # the leg is void unless the runtime really loaded
    assert hasattr(ctypes.CDLL(None), "__asan_init"), "libasan not preloaded"
assert compiled.warm_up() == "compiled"

rng = np.random.default_rng(20231)


def mutants(blob, n):
    """Bit flips (mostly in the header/metadata, where geometry lives)
    and truncations."""
    for i in range(n):
        if i % 4 == 3:
            yield blob[: int(rng.integers(1, len(blob)))]
            continue
        b = bytearray(blob)
        hot = min(len(b), 64 + len(b) // 8)
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, hot if rng.random() < 0.7 else len(b)))
            b[pos] ^= 1 << int(rng.integers(0, 8))
        yield bytes(b)


def numpy_decode(blob, provider, capacity):
    """The reference outcome: the numpy kernel on the same bytes."""
    try:
        parsed = parse_container(blob, provider=provider)
        return RecoilDecoder(parsed.provider, lanes=parsed.lanes).decode(
            parsed.words(blob), parsed.final_states, parsed.metadata,
            max_threads=capacity, engine="fused",
        ).symbols
    except Exception as exc:
        return exc


def check(got, want, what):
    if isinstance(got, ReproError):
        return "error"
    assert not isinstance(got, Exception), f"{what}: untyped {got!r}"
    assert isinstance(want, np.ndarray), (
        f"{what}: compiled decoded, numpy raised {want!r}"
    )
    assert got.dtype == want.dtype and np.array_equal(got, want), (
        f"{what}: compiled output differs from numpy"
    )
    return "decoded"


containers = []
for case in rans_cases():
    with open(os.path.join(golden_dir, case["name"] + ".bin"), "rb") as fh:
        blob = fh.read()
    containers.append((case["name"], blob, case["provider"]))
data = np.minimum(np.floor(rng.exponential(11.0, 20_000)), 255)
data = data.astype(np.uint8)
model = SymbolModel.from_counts(np.bincount(data, minlength=256) + 1, 11)
containers.append(("fresh_20k", RecoilCodec(model).compress(data, 64), None))
containers.append(
    ("fresh_lanes4", RecoilCodec(model, lanes=4).compress(data[:3_000], 16),
     None)
)

tally = {"error": 0, "decoded": 0}
for name, blob, provider in containers:
    static = provider is None or provider.is_static
    for i, bad in enumerate(mutants(blob, 24)):
        cap = (None, 1, 4)[i % 3]
        try:
            got = recoil_decompress(
                bad, max_parallelism=cap,
                provider=None if static else provider,
            )
        except Exception as exc:
            got = exc
        want = numpy_decode(bad, None if static else provider, cap)
        tally[check(got, want, f"{name}#{i} decompress")] += 1

with RecoilService() as service, NetServer(service, NetConfig(port=0)) as srv:
    host, port = srv.address
    with RecoilClient(host, port, timeout_s=60) as client:
        for name, blob, provider in containers:
            if provider is not None and not provider.is_static:
                continue  # no embedded model: OP_PUT refuses it
            for i, bad in enumerate(mutants(blob, 12)):
                asset = f"{name}-{i}"
                try:
                    client.put_container(asset, bad)
                except ReproError:
                    tally["error"] += 1
                    continue
                for cap in (1, 4, 64):
                    try:
                        got = client.decompress(asset, cap)
                    except Exception as exc:
                        got = exc
                    want = numpy_decode(bad, None, cap)
                    tally[check(got, want, f"{asset} OP_DECODE@{cap}")] += 1
print("FUZZ", mode, tally)
assert tally["error"] and tally["decoded"]
'''


def _libasan() -> str | None:
    """Path of the compiler's ASan runtime, or None when it has none."""
    from repro.parallel import compiled

    cc = compiled._find_cc()
    if cc is None:
        return None
    out = subprocess.run(
        [cc, "-print-file-name=libasan.so"], capture_output=True, text=True
    )
    path = out.stdout.strip()
    # Without the runtime the compiler echoes the bare file name.
    return path if os.path.isabs(path) and os.path.exists(path) else None


@needs_compiled
@pytest.mark.parametrize("mode", ["default", "ubsan", "asan"])
def test_hostile_containers_through_compiled_kernel(mode):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_COMPILED_TOOLCHAIN", None)
    if mode == "asan":
        # An ASan-built shared object needs the runtime loaded before
        # the (uninstrumented) interpreter starts; leak checking would
        # flag the interpreter's own allocations, so it is off.
        libasan = _libasan()
        if libasan is None:
            pytest.skip("the C compiler ships no libasan runtime")
        env["LD_PRELOAD"] = libasan
        env["ASAN_OPTIONS"] = "detect_leaks=0"
    proc = subprocess.run(
        [sys.executable, "-c", FUZZ_SCRIPT, mode,
         os.path.join(HERE, "golden")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, (
        f"fuzz subprocess exited {proc.returncode} "
        f"(negative = killed by signal)\n"
        f"stdout:\n{proc.stdout[-2000:]}\nstderr:\n{proc.stderr[-4000:]}"
    )
    assert f"FUZZ {mode}" in proc.stdout
