"""Run one benchmark workload against a freshly started ``repro serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oltp_point --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload traced and reports the per-layer table.  The last line of
standard output is the result object; the line before it carries the
host fingerprint and other detail.  ``--out FILE`` also appends both to
FILE as one JSON line, which ``perfbench/compare.py`` reads.  Exits 2
when the checkout holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("oltp_point", "bulk_ingest", "online_merge", "cross_shard"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no src/repro under {ROOT} to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    from perfbench.bench import run

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record["detail"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
