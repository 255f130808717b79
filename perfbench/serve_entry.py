"""Server launcher: ``repro.cli.main(["serve", ...])`` from this checkout.

Usage::

    python3 perfbench/serve_entry.py [--spans FILE] -- serve --port 0 ...

With ``--spans`` the launcher first wraps the server's layer entry
points (network framing, service, store, container parsing, fused
kernel) with :class:`common.SpanLog` recorders, patching each name
where its caller looks it up, and writes the spans to ``FILE`` as JSON
after the server has drained and returned.  Without it the server runs
untouched.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def install_server_spans(log) -> None:
    from repro.parallel.costmodel import estimate_task_symbols
    from repro.serve import net, service, store

    # One thread serves one connection, so a thread-local counter
    # numbers that connection's requests; the load generator numbers
    # them the same way and keys each by (its local port, seq).
    inner_read = net.NetServer._read_request

    def read_request(self, conn):
        ftype, body, t_first = inner_read(self, conn)
        # The idle wait before the first byte is not part of the read.
        log._local.read = (t_first, time.perf_counter())
        return ftype, body, t_first

    net.NetServer._read_request = read_request
    log.wrap(net.NetServer, "_respond", "net.write")
    log.wrap(
        net.NetServer, "_handle", "net.handle", lambda a, k, r: {"op": a[2]}
    )
    traced_handle = net.NetServer._handle

    def handle(self, conn, ftype, body):
        seq = getattr(log._local, "seq", 0) + 1
        log._local.seq = seq
        log.set_request((conn.addr[1], seq))
        read = getattr(log._local, "read", None)
        if read is not None:
            log.record("net.read", *read)
        return traced_handle(self, conn, ftype, body)

    net.NetServer._handle = handle

    batch_reqs = {}

    def on_submit(args, kwargs, request):
        if request is not None:
            batch_reqs[id(request)] = log.request()
            return {"admitted_at": request.admitted_at}
        return {}

    log.wrap(service.RecoilService, "submit", "service.submit", on_submit)

    def on_execute(args, kwargs, result):
        batch = args[1]
        return {
            "reqs": [batch_reqs.pop(id(r), None) for r in batch],
            "admitted": [r.admitted_at for r in batch],
        }

    log.wrap(service.RecoilService, "_execute", "service.execute", on_execute)

    def on_kernel(args, kwargs, result):
        segments = args[2]
        out = {
            "symbols": sum(s.num_symbols for s in segments),
            "est_symbols": sum(
                estimate_task_symbols(t) for s in segments for t in s.tasks
            ),
        }
        if result is not None:
            out["decoded"] = result.stats.symbols_decoded
            out["lane_utilization"] = result.stats.lane_utilization
        return out

    log.wrap(service, "fused_run_multi", "parallel.kernel", on_kernel)

    def on_shrunk(args, kwargs, result):
        return {"hit": bool(result[1])} if result is not None else {}

    log.wrap(store.AssetStore, "shrunk", "store.shrunk", on_shrunk)

    def on_shrink(args, kwargs, variant):
        if variant is None:
            return {}
        asset = args[0]
        md_bytes = len(variant.blob) - len(asset.head) - len(asset.payload)
        return {"cap": variant.capacity, "metadata_bytes": md_bytes}

    log.wrap(store.StoredAsset, "shrink", "core.shrink", on_shrink)
    log.wrap(store, "parse_container", "core.parse")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path = argv[1]
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, SRC)
    from repro.cli import main as cli_main

    log = None
    if spans_path is not None:
        from common import SpanLog

        log = SpanLog()
        install_server_spans(log)
    code = cli_main(argv)
    if log is not None:
        log.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
