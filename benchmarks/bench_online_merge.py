#!/usr/bin/env python
"""The online merge of perfbench's ``online_merge`` workload, in process.

Writes the workload's seeded preload (5,000 courses, 20,000 people) as
a checkpointed write-ahead log -- the file ``serve --wal`` starts from,
built by ``perfbench.harness.write_preload`` -- and a second preload
with twice the people, so twice the non-member rows and about the same
member rows.  Each repeat is one child process: it recovers a fresh
copy of the log, reads its peak RSS (``VmHWM``), runs
``Database.apply_merge_online(COURSE, OFFER, TEACH, ASSIST)`` -- the
``apply_merge`` verb's engine call -- and reads the peak again.  The
table gives median (IQR) of the merge time and of both peaks; a merge
that touches only the family moves with the member rows, not with the
database::

    python benchmarks/bench_online_merge.py --seed 1 --repeats 5
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from bench_cold_start import _median_iqr, _peak_mb  # noqa: E402

#: ``OnlineMerge``'s people per preload: the workload's own, and double.
PEOPLE = (20_000, 40_000)


def write_preload(seed: int, people: int, path: str) -> dict:
    """The seeded preload as a checkpointed log at ``path``; returns its
    member and non-member row counts."""
    from perfbench.harness import write_preload as write
    from perfbench.streams import MERGE_MEMBERS, OnlineMerge

    gen = OnlineMerge(seed, people=people)
    write(path, gen.model)
    rows = {s: len(r) for s, r in gen.model.rows.items()}
    members = sum(n for s, n in rows.items() if s in MERGE_MEMBERS)
    return {"members": members, "others": sum(rows.values()) - members}


def merge_once(wal: str) -> dict:
    """Recover ``wal`` and merge the family in this process; the merge
    time and the peak RSS before and after it."""
    from perfbench.streams import MERGE_MEMBERS
    from repro.engine.recovery import recover_database
    from repro.workloads.university import university_relational

    db = recover_database(university_relational(), wal).database
    before = _peak_mb()
    start = time.perf_counter()
    db.apply_merge_online(list(MERGE_MEMBERS))
    seconds = time.perf_counter() - start
    after = _peak_mb()
    db.wal.close()
    return {"merge_s": seconds, "rss_before_mb": before, "rss_after_mb": after}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--merge", metavar="WAL", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.merge is not None:
        # Child mode: a fresh process per repeat, so its peaks hold one
        # recovery and one merge and not the preload generator.
        print(json.dumps(merge_once(args.merge)))
        return 0

    print(
        f"in-process online merge, seed {args.seed}, {args.repeats} "
        f"repeat(s), {os.cpu_count()} CPU(s), Python {sys.version.split()[0]}"
    )
    print("| preload | member rows | other rows | merge_s | "
          "VmHWM before MiB | VmHWM after MiB |")
    print("|---|---:|---:|---:|---:|---:|")
    with tempfile.TemporaryDirectory() as tmp:
        for people in PEOPLE:
            wal = os.path.join(tmp, f"people{people}.wal")
            counts = write_preload(args.seed, people, wal)
            runs = []
            for i in range(args.repeats):
                copy = f"{wal}.{i}"
                shutil.copyfile(wal, copy)
                out = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--merge", copy],
                    check=True, capture_output=True, text=True,
                ).stdout
                runs.append(json.loads(out.strip().splitlines()[-1]))
                os.remove(copy)
            col = lambda k: _median_iqr([r[k] for r in runs])  # noqa: E731
            print(
                f"| {people} people | {counts['members']} | "
                f"{counts['others']} | {col('merge_s')} | "
                f"{col('rss_before_mb')} | {col('rss_after_mb')} |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
