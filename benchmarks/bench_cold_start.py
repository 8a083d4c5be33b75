#!/usr/bin/env python
"""Cold-start split of ``serve --wal``: recovery of perfbench's preloads,
replayed in-process.

Writes the seeded preload of perfbench's ``bulk_ingest`` and
``online_merge`` workloads as a checkpointed write-ahead log (the file
``serve --wal`` starts from, built by ``perfbench.harness.write_preload``)
and recovers it ``--repeats`` times in one child process per workload,
each time from a fresh copy of the log.  The split is read from the
recovery's own timers -- ``RecoveryReport.replay_s`` (parse, snapshot
load, replay) and ``verify_s`` (the ``F ∪ I ∪ N`` re-check) -- not
timed again here.  After each recovery the child times one
``Database.checkpoint()`` of the recovered state (``checkpoint_s``: the
snapshot image built from the tables, encoded and written over the
copy -- what ``serve`` does on every graceful drain).  Before that it
reads what the cyclic collector holds after the recovery: the number of
GC-tracked objects in the process (``tracked``, after one full
collection has untracked what it can) and the time of one more full
``gc.collect()`` (``gc_full_ms``) -- each full collection a serving
process runs walks that many objects.  Peak RSS is the
child's high-water mark (``VmHWM``; ``ru_maxrss`` where there is no
``/proc``, which on Linux also counts the forking parent): interpreter,
imports and every recovery and checkpoint, which is what a starting
and draining server holds too.

A second table measures the replay of a log *tail*.  One more child
recovers the ``bulk_ingest`` preload, then applies the first
``TAIL_BATCHES`` accepted batches of that workload's stream
(connection 0: ``insert_many`` and ``apply_batch``, decoded from
their wire JSON outside the timer) to the recovered database, its log
attached.  It then replays the log it wrote: the checkpoint first,
untimed, then the tail's records, parsed and fed through the
recovery's ``WalApplier`` under the timer.  Per mutation (an inserted
row or a batch op) it reports the replay time (``replay_us``), the
live apply of the same batches (``live_us``, the engine calls only)
and the tail's log bytes (``wal_B``)::

    python benchmarks/bench_cold_start.py --seed 1 --repeats 5
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

WORKLOADS = ("bulk_ingest", "online_merge")
#: Accepted ``bulk_ingest`` batches in the replayed log tail.
TAIL_BATCHES = 200


def write_preload(workload: str, seed: int, path: str) -> int:
    """The workload's seeded preload as a checkpointed log at ``path``;
    returns its row count."""
    from perfbench.harness import write_preload as write
    from perfbench.streams import BulkIngest, OnlineMerge, preload_rows

    gen = (BulkIngest if workload == "bulk_ingest" else OnlineMerge)(seed)
    write(path, gen.model)
    return sum(len(rows) for rows in preload_rows(gen.model).values())


def recover_repeatedly(wal: str, repeats: int) -> dict:
    """Recover copies of ``wal`` in this process and checkpoint each
    recovered database once; the timers of each recovery, the tracked
    objects and one full collection's time after it, each checkpoint's
    time, and the process's peak RSS."""
    from repro.engine.recovery import recover_database
    from repro.workloads.university import university_relational

    schema = university_relational()
    replay, verify, checkpoint, tracked, gc_full = [], [], [], [], []
    for i in range(repeats):
        copy = f"{wal}.{i}"
        shutil.copyfile(wal, copy)
        result = recover_database(schema, copy)
        gc.collect()
        tracked.append(len(gc.get_objects()))
        start = perf_counter()
        gc.collect()
        gc_full.append((perf_counter() - start) * 1e3)
        start = perf_counter()
        result.database.checkpoint()
        checkpoint.append(perf_counter() - start)
        result.database.wal.close()
        replay.append(result.report.replay_s)
        verify.append(result.report.verify_s)
        del result
        os.remove(copy)
    return {
        "replay_s": replay,
        "verify_s": verify,
        "checkpoint_s": checkpoint,
        "tracked": tracked,
        "gc_full_ms": gc_full,
        "peak_rss_mb": _peak_mb(),
    }


def replay_tail(wal: str, seed: int, repeats: int) -> dict:
    """Apply the first ``TAIL_BATCHES`` accepted ``bulk_ingest`` batches to
    recovered copies of ``wal``, then replay the tail they logged;
    per-mutation live and replay times and the tail's bytes per
    mutation, one entry per repeat."""
    from perfbench.streams import BulkIngest
    from repro.engine.database import Database
    from repro.engine.recovery import WalApplier, recover_database
    from repro.engine.wal import parse_wal
    from repro.server.protocol import decode_batch_ops
    from repro.workloads.university import university_relational

    schema = university_relational()
    frames = []
    for op in BulkIngest(seed).stream(0):
        if len(frames) == TAIL_BATCHES:
            break
        if op.write and op.reject is None:
            frames.append((op.verb, json.dumps(op.params), op.rows))
    mutations = sum(rows for _verb, _params, rows in frames)
    live, replay, wal_bytes = [], [], []
    for i in range(repeats):
        copy = f"{wal}.tail{i}"
        shutil.copyfile(wal, copy)
        db = recover_database(schema, copy).database
        head = db.wal.storage.size()
        spent = 0.0
        for verb, params, _rows in frames:
            params = json.loads(params)
            if verb == "insert_many":
                start = perf_counter()
                db.insert_many(params["scheme"], params["rows"])
            else:
                ops = decode_batch_ops(params["ops"])
                start = perf_counter()
                db.apply_batch(ops)
            spent += perf_counter() - start
        db.wal.close()
        del db
        with open(copy, "rb") as fh:
            data = fh.read()
        os.remove(copy)
        gc.collect()
        applier = WalApplier(Database(schema))
        for record in parse_wal(data[:head]).records:
            applier.feed(record)
        start = perf_counter()
        for record in parse_wal(data[head:]).records:
            applier.feed(record)
        replay.append((perf_counter() - start) / mutations * 1e6)
        live.append(spent / mutations * 1e6)
        wal_bytes.append((len(data) - head) / mutations)
        del applier
        gc.collect()
    return {
        "batches": len(frames),
        "mutations": mutations,
        "live_us": live,
        "replay_us": replay,
        "wal_B": wal_bytes,
    }


def _peak_mb() -> float:
    """This process's peak resident set size, MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_iqr(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"{xs[0]:.3f} (IQR 0.000)"
    q1, _q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{statistics.median(xs):.3f} (IQR {q3 - q1:.3f})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--recover", metavar="WAL", help=argparse.SUPPRESS)
    parser.add_argument("--tail", metavar="WAL", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.recover is not None:
        # Child mode: one process per workload, so its peak RSS holds
        # only recovery and not the preload generator.
        print(json.dumps(recover_repeatedly(args.recover, args.repeats)))
        return 0
    if args.tail is not None:
        print(json.dumps(replay_tail(args.tail, args.seed, args.repeats)))
        return 0

    print(
        f"in-process recovery and checkpoint, seed {args.seed}, "
        f"{args.repeats} repeat(s), "
        f"{os.cpu_count()} CPU(s), Python {sys.version.split()[0]}"
    )
    print(
        "| workload | rows | replay_s | verify_s | checkpoint_s "
        "| tracked | gc_full_ms | peak RSS MiB |"
    )
    print("|---|---:|---:|---:|---:|---:|---:|---:|")
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            wal = os.path.join(tmp, f"{workload}.wal")
            rows = write_preload(workload, args.seed, wal)
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--recover", wal, "--repeats", str(args.repeats)],
                check=True, capture_output=True, text=True,
            ).stdout
            r = json.loads(out.strip().splitlines()[-1])
            print(
                f"| {workload} | {rows} | {_median_iqr(r['replay_s'])} | "
                f"{_median_iqr(r['verify_s'])} | "
                f"{_median_iqr(r['checkpoint_s'])} | "
                f"{statistics.median(r['tracked']):.0f} | "
                f"{_median_iqr(r['gc_full_ms'])} | {r['peak_rss_mb']:.1f} |"
            )
        wal = os.path.join(tmp, "bulk_ingest.wal")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--tail", wal, "--seed", str(args.seed),
             "--repeats", str(args.repeats)],
            check=True, capture_output=True, text=True,
        ).stdout
        r = json.loads(out.strip().splitlines()[-1])
        ratio = [a / b for a, b in zip(r["replay_us"], r["live_us"])]
        print()
        print(
            "| log tail | batches | mutations | live_us | replay_us "
            "| replay/live | wal_B |"
        )
        print("|---|---:|---:|---:|---:|---:|---:|")
        print(
            f"| bulk_ingest | {r['batches']} | {r['mutations']} | "
            f"{_median_iqr(r['live_us'])} | "
            f"{_median_iqr(r['replay_us'])} | {_median_iqr(ratio)} | "
            f"{_median_iqr(r['wal_B'])} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
