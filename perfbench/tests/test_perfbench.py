"""The benchmark's own tests: seeded op streams, the answer check on a
tiny run of every workload, and the helpers the reports rest on.

Run from the root of the repository::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import bench, compare, harness, streams
from perfbench.bench import Phase, Workload
from perfbench.layers import histogram_quantile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = {
    "oltp_point": Workload(
        "oltp_point", lambda seed: streams.OltpPoint(seed, courses=300, people=300),
        depth=4, blocks=2),
    "bulk_ingest": Workload(
        "bulk_ingest",
        lambda seed: streams.BulkIngest(seed, batch=20, window=2, courses=100,
                                        people=100),
        depth=2, blocks=2),
    "online_merge": Workload(
        "online_merge", lambda seed: streams.OnlineMerge(seed, courses=100, people=300),
        rate=100.0, merge_at=0.3),
    "cross_shard": Workload(
        "cross_shard",
        lambda seed: streams.CrossShard(seed, bench.placement, courses=100, people=100),
        shards=2, blocks=2),
}


def _ops(name: str, seed: int, n: int = 300) -> list[tuple]:
    gen = TINY[name].make(seed)
    out = []
    for conn in range(1 if TINY[name].rate or TINY[name].shards > 1 else gen.connections):
        for op in itertools.islice(gen.stream(conn), n):
            out.append((op.verb, json.dumps(op.params, sort_keys=True),
                        json.dumps(op.expect, sort_keys=True), op.reject))
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_streams_repeat_for_a_seed_and_differ_across_seeds(name):
    assert _ops(name, 7) == _ops(name, 7)
    assert _ops(name, 7) != _ops(name, 8)


@pytest.mark.parametrize("name", sorted(TINY))
def test_model_never_runs_ahead_of_the_ops_handed_out(name):
    """Reads are predicted from the model, so after every op it must
    hold exactly the preload plus the effects of the ops so far."""
    gen = TINY[name].make(4)
    rows = {s: dict(r) for s, r in gen.model.rows.items()}
    stream = gen.stream(0)
    for _ in range(400):
        streams.apply_effect(rows, next(stream))
        assert rows == gen.model.rows


@pytest.mark.parametrize("name", ["oltp_point", "bulk_ingest"])
def test_interleaving_connections_does_not_change_their_streams(name):
    def take(order):
        gen = TINY[name].make(6)
        its = [gen.stream(0), gen.stream(1)]
        out = {0: [], 1: []}
        for conn in order:
            op = next(its[conn])
            out[conn].append((op.verb, json.dumps(op.params, sort_keys=True)))
        return out

    assert take([0] * 200 + [1] * 200) == take([0, 1] * 200)


def test_streams_mix_reads_writes_and_rejections():
    ops = list(itertools.islice(streams.OltpPoint(3, 300, 300).stream(0), 4000))
    reads = sum(not op.write for op in ops) / len(ops)
    rejected = sum(op.reject is not None for op in ops) / len(ops)
    assert 0.5 < reads < 0.7
    assert 0.03 < rejected < 0.07


def test_connections_own_disjoint_keys():
    gen = streams.OltpPoint(5, 300, 300)
    keys = []
    for conn in range(2):
        keys.append({json.dumps(op.params.get("pk") or op.params.get("row"))
                     for op in itertools.islice(gen.stream(conn), 500)})
    assert all("c1-" not in k for k in keys[0])
    assert all("c0-" not in k for k in keys[1])


def test_cross_shard_preload_is_consistent_per_shard():
    from repro.constraints.checker import ConsistencyChecker
    from repro.relational.state import DatabaseState
    from repro.workloads.university import university_relational

    schema = university_relational()
    gen = streams.CrossShard(1, bench.placement, courses=200, people=200)
    for shard in range(2):
        rows = {s: [r for r in rs.values()
                    if bench.placement(s, r[streams.KEY[s]]) == shard]
                for s, rs in gen.model.rows.items()}
        state = DatabaseState.for_schema(schema, rows)
        assert ConsistencyChecker(schema).violations(state) == []


def test_answer_ok_checks_values_and_rejection_kinds():
    op = streams.Op("get", {"scheme": "PERSON", "pk": ["p"]}, False, {"P.SSN": "p"})
    assert streams.answer_ok(op, {"ok": True, "result": {"P.SSN": "p"}})
    assert not streams.answer_ok(op, {"ok": True, "result": None})
    rej = streams.Op("insert", {}, True, reject="primary-key")
    bad = {"ok": False, "error": {"type": "constraint-violation", "kind": "primary-key"}}
    assert streams.answer_ok(rej, bad)
    assert not streams.answer_ok(rej, {"ok": True, "result": {}})
    assert not streams.answer_ok(rej, {"ok": False, "error": {
        "type": "constraint-violation", "kind": "inclusion-dependency"}})


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_answer_check(name, tmp_path):
    out = bench.session(TINY[name], 11, [Phase(1.0)], str(tmp_path), repeats=1)
    tally = out.tally
    assert out.problems == []
    assert tally.failed == 0, tally.failures
    assert tally.attempted > 10
    assert tally.samples
    if TINY[name].rate:
        assert out.side_s > 0  # the merge ran and was answered


def test_answer_check_catches_a_wrong_prediction(tmp_path):
    """Flip one prediction: the run must report it failed."""
    class Lying(streams.OltpPoint):
        def stream(self, conn):
            for i, op in enumerate(super().stream(conn)):
                if i == 5 and conn == 0:
                    op.reject = None if op.reject else "primary-key"
                yield op

    w = Workload("oltp_point", lambda seed: Lying(seed, 200, 200), depth=2)
    out = bench.session(w, 3, [Phase(0.5)], str(tmp_path), repeats=1)
    assert out.tally.failed >= 1


def test_feed_reencodes_leftover_frames_for_the_next_phase():
    """Frames encoded ahead in an untraced phase must carry the traced
    phase's span context when that phase sends them."""
    class Tagging(harness.FrameHooks):
        def before_send(self, feed, rid, op, params):
            return dict(params, span="tagged")

    feed = harness.Feed(streams.OltpPoint(5, 200, 200).stream(0))
    feed.prepare(4, None)
    rids = [rid for rid, _, _ in feed.ready]
    hooks = Tagging()
    feed.prepare(6, hooks)
    frames = [json.loads(feed.take(hooks)[2]) for _ in range(6)]
    assert [f["id"] for f in frames[:4]] == rids
    assert all(f.get("span") == "tagged" for f in frames)
    assert feed.inline == 0


def test_summary_takes_medians_over_blocks():
    tally = harness.Tally(wall_s=4.0)
    for i in range(400):
        slow = i >= 300  # the last block is ten times slower
        tally.samples.append((i / 100, 10.0 if slow else 1.0, i % 2 == 0, 1))
    summary = tally.summary(4)
    assert summary["ops_per_s"] == pytest.approx(100.0)
    assert summary["write_p99_ms"] == 1.0
    assert tally.summary(1)["write_p99_ms"] == 10.0


def test_histogram_quantile_interpolates_inside_the_bucket():
    text = "\n".join([
        'h_bucket{le="0.001"} 50',
        'h_bucket{le="0.002"} 100',
        'h_bucket{le="+Inf"} 100',
        "h_count 100",
    ])
    assert histogram_quantile(text, "h", 0.5) == pytest.approx(0.001)
    assert histogram_quantile(text, "h", 0.75) == pytest.approx(0.0015)
    assert histogram_quantile("", "h", 0.5) == 0.0


def _record(workload, value, seed, calibration=14e6):
    return json.dumps({
        "detail": {"workload": workload, "seed": seed, "trace": False,
                   "calibration_before": calibration, "calibration_after": calibration,
                   "cpu_steal_frac": 0.0},
        "result": {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {"ops_per_s": {"value": value, "unit": "req/s"}}},
    })


def test_compare_flags_only_differences_beyond_the_spread(tmp_path):
    base = tmp_path / "base.jsonl"
    same = tmp_path / "same.jsonl"
    slower = tmp_path / "slower.jsonl"
    base.write_text("\n".join(_record("w", v, i) for i, v in enumerate([98, 100, 102, 99, 101])))
    same.write_text("\n".join(_record("w", v, i) for i, v in enumerate([99, 101, 100, 98, 103])))
    slower.write_text("\n".join(_record("w", v, i, calibration=7e6)
                                for i, v in enumerate([80, 81, 79, 82, 80])))
    row = lambda rows, name: next(r for r in rows if f" {name} " in r)  # noqa: E731
    within = compare.compare(compare.load(str(base)), compare.load(str(same)))
    changed = compare.compare(compare.load(str(base)), compare.load(str(slower)))
    assert "within noise" in row(within, "ops_per_s")
    assert "CHANGED" in row(changed, "ops_per_s") and "base 100.0000" in row(changed, "ops_per_s")
    # The host's own drift is shown next to the metrics, never flagged.
    host = row(changed, "host.calibration_M_per_s")
    assert "head/base   0.500" in host and "CHANGED" not in host


def test_run_fails_cleanly_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oltp_point",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    from perfbench.layers import UNITS as LAYER_UNITS

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(e2e) == {"setup_s", "server_rss_mb", "wal_bytes_per_row", *bench.UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    # Workloads too noisy for a bound are run by hand only (bench.MANUAL).
    listed = {w["name"] for w in spec["workloads"]}
    assert listed == set(bench.WORKLOADS) - bench.MANUAL
