#!/usr/bin/env python
"""Per-row CPU split of the served bulk path, replayed in-process.

Replays the write batches of perfbench's ``bulk_ingest`` stream (both
connections, the served preload) through the calls the server makes
for them, and times each stage per row:

* ``json.loads`` -- :func:`repro.server.protocol.decode_frame`;
* ``row decode`` -- :func:`~repro.server.protocol.decode_rows` for
  ``insert_many``, the op decoder for ``apply_batch``;
* ``engine`` -- ``Database.insert_rows`` / ``apply_runs``, as the
  server calls them, with a write-ahead log over memory (record
  encoding included, no fsync); they return the stored row dicts the
  response is built from;
* ``json.dumps`` -- :func:`~repro.server.protocol.encode_frame`.

Rows are grouped by batch shape.  Each repeat replays on a fresh
database; the table reports the median over repeats::

    python benchmarks/bench_bulk_split.py --seed 5 --ops 300 --repeats 3
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from collections import defaultdict
from itertools import islice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.streams import BulkIngest, preload_rows  # noqa: E402
from repro.engine.database import (  # noqa: E402
    ConstraintViolationError,
    Database,
)
from repro.engine.wal import MemoryStorage, WriteAheadLog, op_runs  # noqa: E402
from repro.relational.state import DatabaseState  # noqa: E402
from repro.server import protocol  # noqa: E402
from repro.workloads.university import university_relational  # noqa: E402

STAGES = ("json.loads", "row decode", "engine", "json.dumps")


def _shape(verb: str, ops: list) -> str:
    if verb == "insert_many":
        return "insert_many"
    return "apply_batch " + "/".join(sorted({op[0] for op in ops}))


def replay(state, lines, verbs) -> dict[str, dict[str, float]]:
    """One timed replay on a fresh database: seconds and rows per stage,
    by batch shape."""
    schema = university_relational()
    db = Database(schema, wal=WriteAheadLog(MemoryStorage()))
    db.load_state(state, validate=False)
    acc: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    clock = time.perf_counter
    for i, (verb, line) in enumerate(zip(verbs, lines)):
        t0 = clock()
        frame = protocol.decode_frame(line)
        t1 = clock()
        if verb == "insert_many":
            batch = protocol.decode_rows(frame["rows"])
        else:
            batch = protocol.decode_batch_ops(frame["ops"])
        t2 = clock()
        shape = _shape(verb, batch)
        try:
            if verb == "insert_many":
                result = db.insert_rows(frame["scheme"], batch)
            else:
                result = db.apply_runs(op_runs(batch))
        except ConstraintViolationError:
            result, shape = None, shape + " (rejected)"
        t3 = clock()
        protocol.encode_frame(protocol.ok_frame(i, result))
        t4 = clock()
        row = acc[shape]
        row["rows"] += len(batch)
        for stage, seconds in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            row[stage] += seconds
    return acc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--ops", type=int, default=300, help="stream ops per connection"
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    gen = BulkIngest(seed=args.seed)
    state = DatabaseState.for_schema(
        university_relational(), preload_rows(gen.model)
    )
    ops = [
        op
        for conn in range(gen.connections)
        for op in islice(gen.stream(conn), args.ops)
        if op.write
    ]
    lines = [
        protocol.encode_frame(protocol.request_frame(i, op.verb, **op.params))
        for i, op in enumerate(ops)
    ]
    verbs = [op.verb for op in ops]
    runs = [replay(state, lines, verbs) for _ in range(args.repeats)]

    print("CPU per row (µs), median of", args.repeats, "replays")
    print(f"| batch shape | rows | {' | '.join(STAGES)} |")
    print("|---|---:|" + "---:|" * len(STAGES))
    shapes = sorted(set().union(*runs))
    for shape in shapes + ["all"]:
        per_run = []
        for run in runs:
            rows = [run[s] for s in (shapes if shape == "all" else [shape])]
            total = {k: sum(r[k] for r in rows) for k in ("rows",) + STAGES}
            per_run.append(total)
        n = int(per_run[0]["rows"])
        cells = [
            f"{statistics.median(1e6 * r[s] / r['rows'] for r in per_run):.2f}"
            for s in STAGES
        ]
        print(f"| {shape} | {n} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
