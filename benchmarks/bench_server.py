#!/usr/bin/env python
"""Smoke load for an already-running JSON-lines server.

Drives a ``python -m repro serve`` instance with a small closed-loop
insert load (:data:`CLIENTS` threads of :data:`OPS_PER_CLIENT` inserts
each), then asserts the server answers a non-empty ``metrics``
exposition and prints the load summary with the WAL group-commit
counters as JSON::

    python -m repro serve university.json --wal db.wal &
    python benchmarks/bench_server.py --connect 127.0.0.1:7043

Pointed at a sharded fleet's public port (``serve --workers N``), it
detects the fleet through the ``topology`` verb, routes each insert to
its owning worker with :class:`repro.client.ShardedClient`, and sums
the per-worker counters.

This is a load driver for smoke checks, not a benchmark: the served
engine's measured numbers come from ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.client import Client, ShardedClient

#: Concurrent client threads of the smoke load.
CLIENTS = 4
#: Inserts each client thread sends.
OPS_PER_CLIENT = 25


def run_clients(
    host: str, port: int, prefix: str, client_cls: type
) -> dict[str, float]:
    """Drive :data:`CLIENTS` threads of :data:`OPS_PER_CLIENT` inserts
    each, one ``client_cls`` connection per thread; aggregate throughput
    and per-request latency."""
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(CLIENTS + 1)

    def worker(i: int) -> None:
        try:
            with client_cls(host=host, port=port, timeout=60) as c:
                barrier.wait()
                lat = latencies[i]
                for j in range(OPS_PER_CLIENT):
                    t0 = perf_counter()
                    c.insert("COURSE", {"C.NR": f"{prefix}c{i}-{j}"})
                    lat.append(perf_counter() - t0)
        except BaseException as exc:  # surface, don't hang the barrier
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = perf_counter()
    for t in threads:
        t.join()
    wall = perf_counter() - t0
    if errors:
        raise errors[0]
    merged = sorted(x for lat in latencies for x in lat)
    n = len(merged)
    return {
        "clients": CLIENTS,
        "ops_per_client": OPS_PER_CLIENT,
        "inserts_per_s": round(n / wall, 1),
        "p50_us": round(merged[n // 2] * 1e6, 1),
        "p99_us": round(merged[min(n - 1, (n * 99) // 100)] * 1e6, 1),
        "wall_s": round(wall, 3),
    }


def bench_external(host: str, port: int) -> dict[str, object]:
    """Drive an already-running server; returns the load summary.

    Probes the ``topology`` verb first: pointed at a sharded fleet's
    public port it switches to sharded clients (routing each insert to
    its owning worker) and aggregates the per-worker WAL counters.
    """
    prefix = f"bench-{os.getpid()}-"
    with Client(host=host, port=port, timeout=60) as c:
        try:
            topo = c.call("topology")
        except Exception:
            topo = {}
    workers = int(topo.get("workers", 1) or 1)
    sharded = workers > 1 and bool(topo.get("ports"))
    result = run_clients(
        host, port, prefix, ShardedClient if sharded else Client
    )
    if sharded:
        result["workers"] = workers
        with ShardedClient(host=host, port=port, timeout=60) as sc:
            snaps = sc.stats()
    else:
        with Client(host=host, port=port, timeout=60) as c:
            snaps = [c.stats()]
    result["group_commits"] = sum(s["wal_group_commits"] for s in snaps)
    result["batched_records"] = sum(s["wal_batched_records"] for s in snaps)
    with Client(host=host, port=port, timeout=60) as c:
        metrics = c.metrics()
    result["metrics_bytes"] = len(metrics)
    if not metrics.strip():
        raise SystemExit("server returned an empty metrics exposition")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        required=True,
        help="the running server (or fleet public port) to drive",
    )
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    entry = bench_external(host or "127.0.0.1", int(port))
    print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
