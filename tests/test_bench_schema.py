"""The BENCH_engine.json schema validator (scripts/check_bench_schema.py).

The committed report must conform, and the validator must actually
catch the drift it exists to catch: a dropped column in any entry kind
(engine result, wal and advisor sub-entries, backend comparison), and
an entry whose harness script no longer exists.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_bench_schema", REPO_ROOT / "scripts" / "check_bench_schema.py"
)
check_bench_schema = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_bench_schema)
validate_report = check_bench_schema.validate_report


def _committed_report() -> dict:
    return json.loads((REPO_ROOT / "BENCH_engine.json").read_text())


def test_committed_report_conforms():
    assert validate_report(_committed_report()) == []


def test_cli_passes_on_committed_report(capsys):
    assert check_bench_schema.main([]) == 0
    assert "bench schema OK" in capsys.readouterr().out


def test_missing_engine_column_is_caught():
    report = _committed_report()
    del report["results"][0]["fig3_ops_per_s"]
    problems = validate_report(report)
    assert any("results[0]" in p and "fig3_ops_per_s" in p for p in problems)


def test_missing_wal_key_is_caught():
    report = _committed_report()
    entry = next(e for e in report["results"] if "wal" in e)
    del entry["wal"]["checkpoint_ms"]
    assert any("checkpoint_ms" in p for p in validate_report(report))


def test_missing_advisor_key_is_caught():
    report = _committed_report()
    entry = next(e for e in report["results"] if "advisor" in e)
    del entry["advisor"]["join_p50_us_after"]
    problems = validate_report(report)
    assert any(
        ".advisor" in p and "join_p50_us_after" in p for p in problems
    )


def test_missing_slotted_column_is_caught():
    report = _committed_report()
    del report["results"][0]["slotted_speedup_x"]
    problems = validate_report(report)
    assert any(
        "results[0]" in p and "slotted_speedup_x" in p for p in problems
    )


def test_non_object_report_is_rejected():
    assert validate_report([]) != []
    assert any(
        "results" in p for p in validate_report({"harness": "x"})
    )


def test_missing_backend_field_is_caught():
    report = _committed_report()
    assert "backend_sqlite" in report, "committed report lacks backend entry"
    del report["backend_sqlite"]["sqlite_bulk_rows_per_s"]
    problems = validate_report(report)
    assert any(
        "backend_sqlite" in p and "sqlite_bulk_rows_per_s" in p
        for p in problems
    )


def test_entry_naming_a_missing_harness_is_caught():
    report = _committed_report()
    report["backend_sqlite"]["harness"] = "benchmarks/bench_gone.py --flag"
    problems = validate_report(report)
    assert any(
        "backend_sqlite" in p and "bench_gone.py" in p for p in problems
    )
