#!/usr/bin/env python
"""Start-up time of ``serve --wal --fsync`` on perfbench's preloads,
from spawn to ready.

For each workload (``bulk_ingest`` and ``online_merge``) and each source
tree (``--tree``; this checkout by default, give two to compare), the
tree's own ``perfbench.harness.write_preload`` writes the seeded preload
as a checkpointed log -- in that tree's log format.  Then ``--repeats``
rounds each start the server once per tree on a fresh copy of that
tree's preload, in alternating order (first tree first in even rounds,
last tree first in odd ones, so drift on the host falls on both sides),
and time from the spawn to the ``listening on`` line, which ``serve``
prints only after it has recovered the log.  The server is then killed:
nothing was written to the copy, so it needs no drain.  That is what
perfbench's own set-up times, once per start instead of as the median
of three::

    python benchmarks/bench_serve_start.py --repeats 25
    python benchmarks/bench_serve_start.py --repeats 25 --tree ../base --tree .

Each tree gets the median and the interquartile range of its starts;
with two trees, the last line per workload counts the rounds in which
the second tree started faster.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bulk_ingest", "online_merge")

#: Run with a tree's ``src`` and root on ``sys.path``: writes the schema
#: file and one workload's seeded preload (argv: workload, seed, dir).
_WRITE_PRELOAD = """
import os, sys
from perfbench.harness import write_preload, write_schema
from perfbench.streams import BulkIngest, OnlineMerge
workload, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
gen = (BulkIngest if workload == "bulk_ingest" else OnlineMerge)(seed)
write_schema(os.path.join(out, "schema.json"))
write_preload(os.path.join(out, workload + ".wal"), gen.model)
"""


def _env(tree: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(tree, "src"), tree]
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def write_preload(tree: str, workload: str, seed: int, out: str) -> str:
    """``tree``'s preload of ``workload`` in ``out``; its path."""
    subprocess.run(
        [sys.executable, "-c", _WRITE_PRELOAD, workload, str(seed), out],
        check=True,
        env=_env(tree),
        cwd=tree,
    )
    return os.path.join(out, workload + ".wal")


def time_start(tree: str, schema: str, preload: str, wal: str) -> float:
    """Seconds from spawning ``serve --wal --fsync`` (from ``tree``) on a
    fresh copy of ``preload`` to its readiness line."""
    shutil.copyfile(preload, wal)
    cmd = [
        sys.executable, "-m", "repro", "serve", schema,
        "--host", "127.0.0.1", "--port", "0", "--wal", wal, "--fsync",
    ]
    start = perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(tree),
        cwd=tree,
    )
    transcript = []
    try:
        for line in proc.stdout:
            if line.startswith("listening on "):
                elapsed = perf_counter() - start
                if not any(s.startswith("recovered ") for s in transcript):
                    raise RuntimeError(
                        "server did not recover its preload:\n"
                        + "".join(transcript)
                    )
                return elapsed
            transcript.append(line)
        raise RuntimeError("server exited before ready:\n" + "".join(transcript))
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def _median_iqr(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], 0.0
    q1, _q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return statistics.median(xs), q3 - q1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=25)
    parser.add_argument(
        "--tree",
        action="append",
        help="source tree to start the server from (repeat to compare; "
        "default: this checkout)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = [os.path.abspath(t) for t in (args.tree or [ROOT])]

    print(
        f"serve --wal --fsync, spawn to ready, seed {args.seed}, "
        f"{args.repeats} alternating round(s), {os.cpu_count()} CPU(s), "
        f"Python {sys.version.split()[0]}"
    )
    print("| workload | tree | starts | median_s | IQR_s | preload bytes |")
    print("|---|---|---:|---:|---:|---:|")
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            preloads = []
            for i, tree in enumerate(trees):
                out = os.path.join(tmp, f"{workload}-{i}")
                os.makedirs(out)
                preloads.append((out, write_preload(tree, workload, args.seed, out)))
            timings: list[list[float]] = [[] for _ in trees]
            for round_ in range(args.repeats):
                order = range(len(trees))
                for i in order if round_ % 2 == 0 else reversed(order):
                    out, preload = preloads[i]
                    timings[i].append(
                        time_start(
                            trees[i],
                            os.path.join(out, "schema.json"),
                            preload,
                            os.path.join(out, "serve.wal"),
                        )
                    )
            for i, tree in enumerate(trees):
                median, iqr = _median_iqr(timings[i])
                print(
                    f"| {workload} | {os.path.relpath(tree)} | {args.repeats} | "
                    f"{median:.3f} | {iqr:.3f} | "
                    f"{os.path.getsize(preloads[i][1])} |"
                )
            if len(trees) == 2:
                faster = sum(b < a for a, b in zip(*timings))
                print(
                    f"| {workload} | {os.path.relpath(trees[1])} faster in "
                    f"{faster}/{args.repeats} rounds | | | | |"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
