#!/usr/bin/env python
"""Validate the structure of ``BENCH_engine.json``.

The benchmark report is written by ``benchmarks/bench_engine.py`` (the
top level and the per-size ``results`` entries with their ``wal`` and
``advisor`` sub-entries) and ``benchmarks/bench_backend.py`` (the
``backend_sqlite`` bulk-load comparison), and read by docs, CI greps
and regression tooling.  This checker pins the required keys per entry
so a harness edit cannot silently drop a column downstream consumers
depend on, and requires every entry's ``harness`` to name a script
that exists, so an entry whose harness is gone is caught too::

    python scripts/check_bench_schema.py [REPORT.json]

Exit code 0 when the report conforms, 1 with one line per problem
otherwise.  :func:`validate_report` is importable for the test suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every entry kind: ``(path, required keys, optional?)``.  A path is
#: dotted from the report's top level (``""``); ``name[*]`` stands for
#: each element of the non-empty array under ``name``.
ENTRIES: tuple[tuple[str, frozenset[str], bool], ...] = (
    (
        "",
        frozenset(("harness", "ops_cap", "python", "results", "sizes")),
        False,
    ),
    (
        "results[*]",
        frozenset(
            (
                "n_courses",
                "n_ops",
                "fig3_ops_per_s",
                "fig3_latency_us",
                "fig6_ops_per_s",
                "fig6_latency_us",
                "indexed_ops_per_s",
                "indexed_latency_us",
                "scan_baseline_ops_per_s",
                "speedup_vs_scan",
                "bulk_rows_per_s",
                "bulk_dict_rows_per_s",
                "slotted_speedup_x",
            )
        ),
        False,
    ),
    (
        "results[*].wal",
        frozenset(
            (
                "checkpoint_ms",
                "insert_wal_off",
                "insert_wal_on",
                "wal_overhead_x",
            )
        ),
        True,
    ),
    (
        # Profile-join latency before/after the advised online merge.
        "results[*].advisor",
        frozenset(
            (
                "recommended",
                "merged_name",
                "joins_observed",
                "apply_ms",
                "join_ops_per_s_before",
                "join_ops_per_s_after",
                "join_p50_us_before",
                "join_p50_us_after",
                "join_p99_us_before",
                "join_p99_us_after",
                "join_speedup_x",
            )
        ),
        True,
    ),
    (
        "backend_sqlite",
        frozenset(
            (
                "harness",
                "python",
                "n_courses",
                "rows_loaded",
                "engine_bulk_rows_per_s",
                "sqlite_bulk_rows_per_s",
                "sqlite_slowdown_x",
            )
        ),
        True,
    ),
)

#: Stands in for an entry its path does not reach.
ABSENT = object()


def _select(report: object, path: str) -> list[tuple[str, object]]:
    """``(where, entry)`` for every entry ``path`` names in ``report``;
    :data:`ABSENT` marks a missing entry or an empty/non-array ``[*]``."""
    nodes: list[tuple[str, object]] = [("report", report)]
    for part in filter(None, path.split(".")):
        name = part.removesuffix("[*]")
        step: list[tuple[str, object]] = []
        for where, node in nodes:
            if not isinstance(node, dict):
                continue  # its own entry reports the wrong type
            where = name if where == "report" else f"{where}.{name}"
            value = node.get(name, ABSENT)
            if part == name:
                step.append((where, value))
            elif isinstance(value, list) and value:
                step += [(f"{where}[{i}]", v) for i, v in enumerate(value)]
            else:
                step.append((where, ABSENT))
        nodes = step
    return nodes


def _missing(entry: object, required: frozenset, where: str) -> list[str]:
    """Problems for one dict-shaped entry: wrong type or missing keys."""
    if not isinstance(entry, dict):
        return [f"{where}: expected an object, got {type(entry).__name__}"]
    absent = sorted(required - entry.keys())
    if absent:
        return [f"{where}: missing key(s) {', '.join(absent)}"]
    return []


def _stale_harness(entry: object, where: str) -> list[str]:
    """A problem when the entry's ``harness`` names no existing script
    (its first word is a path relative to the repository root)."""
    if not isinstance(entry, dict) or "harness" not in entry:
        return []
    script = str(entry["harness"]).split(" ")[0]
    if script and (REPO_ROOT / script).is_file():
        return []
    return [f"{where}: harness {script!r} is not a script in this repository"]


def validate_report(report: object) -> list[str]:
    """Every schema problem in one parsed report (empty = conformant)."""
    problems: list[str] = []
    for path, required, optional in ENTRIES:
        for where, entry in _select(report, path):
            if entry is ABSENT:
                if not optional:
                    problems.append(f"{where}: missing or an empty array")
                continue
            problems += _missing(entry, required, where)
            problems += _stale_harness(entry, where)
    return problems


def main(argv: list[str] | None = None) -> int:
    """Check one report file (default: the repo's BENCH_engine.json)."""
    argv = sys.argv[1:] if argv is None else argv
    path = Path(argv[0]) if argv else REPO_ROOT / "BENCH_engine.json"
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    problems = validate_report(report)
    for problem in problems:
        print(f"{path}: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{path}: bench schema OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
