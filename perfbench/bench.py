"""The four workloads, their end-to-end metrics and their answer checks.

:func:`run` is what ``perfbench/run.py`` calls: an untraced run
(``trace=False``) reports the end-to-end metrics; a traced run reports
the per-layer table (:mod:`perfbench.layers`).  Either way every
response is checked against the generator's prediction, and after a
graceful drain each WAL is recovered into a fresh ``Database`` and
compared row for row with the generator's model.
"""

from __future__ import annotations

import os
import platform
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.client import Client, RemoteConstraintViolation, RemoteError, ShardedClient
from repro.constraints.checker import ConsistencyChecker
from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.relational.state import DatabaseState
from repro.server.router import shard_of
from repro.workloads.university import university_relational

from perfbench import harness, streams
from perfbench.harness import Served, Tally, percentile

#: Seconds of checked but unmeasured traffic before each window.
WARMUP_S = 1.0


def placement(scheme: str, key: str) -> int:
    """The 2-worker fleet's owner of a row (the router's own hash)."""
    return shard_of(scheme, [key], 2)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Any]
    shards: int = 1
    depth: int = 0  # closed loop: requests in flight per connection
    rate: float = 0.0  # open loop: requests per second
    merge_at: float = 0.0  # open loop: share of the window before the merge
    blocks: int = 1  # slices of the window the metrics take medians over
    warmup_fill: int = 0  # closed loop: requests per connection encoded
    # before the warm-up (the window's are sized from the warm-up's rate)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oltp_point", streams.OltpPoint, depth=16, blocks=8,
                 warmup_fill=8000),
        Workload("bulk_ingest", streams.BulkIngest, depth=2, blocks=8,
                 warmup_fill=200),
        # One slice: its tail (client.*_p99_ms) is the merge stall,
        # which a median over slices would hide.  The load is offered at
        # a fixed rate, so ops_per_s/rows_per_s read that rate unless
        # the server falls behind.
        Workload("online_merge", streams.OnlineMerge, rate=150.0,
                 merge_at=0.3),
        Workload("cross_shard",
                 lambda seed: streams.CrossShard(seed, placement), shards=2,
                 blocks=4),
    )
}
#: Workloads left out of ``BENCHMARK.json`` and run only by hand: on a
#: shared 2-vCPU host, ten runs of the same code spread beyond the
#: largest bound (0.25) the benchmark may set.  Both wait on a wake-up
#: per request or per group commit, so their throughput and latencies
#: follow the CPU time other tenants take (cpu_steal_frac): cross_shard
#: (one 2PC batch in flight) by about 45%, oltp_point by 36-56%.
MANUAL = {"oltp_point", "cross_shard"}


# -- host fingerprint --------------------------------------------------------------


def calibration_rate() -> float:
    """Iterations per second of a fixed pure-Python loop: timed before
    and after a run, it separates host drift from a regression."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return 300_000 / (time.perf_counter() - start)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host so far; (0, 0) where
    ``/proc/stat`` is unavailable.  Steal is time the hypervisor gave
    this machine's CPUs to someone else."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def fingerprint() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "flush_policy": "fsync at every group-commit barrier (serve --fsync)",
    }


# -- driving ---------------------------------------------------------------------


def _sharded_frame(client: ShardedClient, op: streams.Op) -> dict:
    """Run one op through the blocking sharded client; a frame-shaped
    dict of its outcome, for :func:`streams.answer_ok`."""
    try:
        if op.verb == "apply_batch":
            result = client.apply_batch(tuple(o) for o in op.params["ops"])
        else:
            result = client.get(op.params["scheme"], op.params["pk"][0])
    except RemoteConstraintViolation as exc:
        return {"ok": False, "error": {"type": "constraint-violation", "kind": exc.kind}}
    except RemoteError as exc:
        return {"ok": False, "error": {"type": exc.type, "message": exc.message}}
    return {"ok": True, "result": result}


def sharded_loop(client: ShardedClient, stream, warmup_s: float,
                 seconds: float) -> Tally:
    """Closed loop with one batch in flight (2PC cannot pipeline)."""
    tally = Tally()
    begin = time.perf_counter()
    window_start = tally.window_start = begin + warmup_s
    deadline = window_start + seconds
    while True:
        now = time.perf_counter()
        if now >= deadline:
            break
        op = next(stream)
        frame = _sharded_frame(client, op)
        done = time.perf_counter()
        tally.settle(op, frame, done - now, now >= window_start, done)
        tally.sent.append(op)
    tally.wall_s = time.perf_counter() - window_start
    return tally


def open_streams(w: Workload, gen) -> list:
    """One op stream per connection that carries generated traffic
    (online_merge's second connection carries only the merge)."""
    return [gen.stream(c) for c in range(1 if w.merge_at else gen.connections)]


@dataclass
class Phase:
    """One stretch of traffic inside a session.  ``hooks`` instrument
    the pipelined driver, ``client_hook`` the sharded client; ``side``
    sends the open loop's merge."""

    seconds: float
    hooks: Any = None
    client_hook: Callable | None = None
    side: bool = True


def drive(w: Workload, gen, feeds: list[harness.Feed], served: Served,
          phase: Phase) -> tuple[Tally, float]:
    """Run one phase of the workload's load against ``served``; returns
    the tally and, for ``online_merge``, the merge's latency."""
    if w.shards > 1:
        with ShardedClient(port=served.port, timeout=120) as client:
            if phase.client_hook is not None:
                phase.client_hook(client)
            tally = sharded_loop(client, feeds[0].stream, WARMUP_S, phase.seconds)
        return tally, 0.0
    if w.rate:
        side = None
        if phase.side and w.merge_at:
            side = (w.merge_at * phase.seconds, served.port, gen.merge_op())
        return harness.open_loop([served.port] * len(feeds), feeds,
                                 w.rate, WARMUP_S, phase.seconds,
                                 side=side, hooks=phase.hooks)
    tally = harness.closed_loop(
        [served.port] * len(feeds), feeds, w.depth, WARMUP_S,
        phase.seconds, w.warmup_fill, hooks=phase.hooks,
    )
    return tally, 0.0


def server_stats(served: Served) -> list[dict]:
    """Every worker's ``stats`` snapshot."""
    out = []
    for port in served.ports():
        with Client(port=port, timeout=120) as client:
            out.append(client.stats())
    return out


def stat_delta(before: list[dict], after: list[dict], key: str) -> float:
    return sum(a.get(key, 0) - b.get(key, 0) for b, a in zip(before, after))


# -- answer checking ---------------------------------------------------------------


def _compare(scheme: str, want, have) -> list[str]:
    """The mismatch between two collections of rows, if any."""
    rowset = lambda rows: {frozenset((k, repr(v)) for k, v in r.items())  # noqa: E731
                           for r in rows}
    want, have = rowset(want), rowset(have)
    if want == have:
        return []
    return [f"{scheme}: {len(want - have)} row(s) missing, "
            f"{len(have - want)} unexpected"]


def verify_state(w: Workload, expected: dict, preload: dict, served: Served,
                 merged: bool) -> list[str]:
    """Recover each drained WAL into a fresh ``Database`` and compare
    its rows with ``expected``; returns the mismatches.  A merged
    scheme is compared with an in-process merge of ``preload``."""
    schema = university_relational()
    if w.shards > 1:
        # Each worker holds rows referencing the other worker, so a
        # worker's log is consistent only together with the others':
        # recover without the per-log check, then check the union.
        union = {s: [] for s in streams.SCHEMES}
        for path in served.wal_paths:
            db = recover_database(schema, path, verify=False).database
            for s in streams.SCHEMES:
                union[s].extend(t.mapping for t in db.scan(s))
            db.wal.close()
        problems = []
        for s in streams.SCHEMES:
            problems += _compare(s, expected[s].values(), union[s])
        state = DatabaseState.for_schema(schema, union)
        problems += [str(v) for v in ConsistencyChecker(schema).violations(state)][:5]
        return problems
    # The check verb already re-verified consistency on the server.
    db = Database.recover(schema, served.wal_paths[0], verify=False)
    try:
        problems = []
        plain = [s for s in streams.SCHEMES
                 if not (merged and s in streams.MERGE_MEMBERS)]
        for s in plain:
            problems += _compare(s, expected[s].values(),
                                 (t.mapping for t in db.scan(s)))
        if merged:
            reference = Database(schema)
            reference.load_state(DatabaseState.for_schema(
                schema, {s: list(r.values()) for s, r in preload.items()}))
            name = reference.apply_merge_online(
                list(streams.MERGE_MEMBERS)).info.merged_name
            if name not in {s.name for s in db.schema.schemes}:
                return problems + [f"served state has no merged scheme {name}"]
            problems += _compare(name, (t.mapping for t in reference.scan(name)),
                                 (t.mapping for t in db.scan(name)))
        return problems
    finally:
        db.wal.close()


# -- one measured run ------------------------------------------------------------------


@dataclass
class Outcome:
    """One served session: a tally and ``stats`` snapshots (before,
    after) per phase, plus what the server reported."""

    tallies: list[Tally]
    stats: list[tuple[list[dict], list[dict]]]
    setup_s: float
    rss_mb: float
    side_s: float
    problems: list[str]
    preload: list[str]

    @property
    def tally(self) -> Tally:
        return self.tallies[0]

    def wal_bytes_per_row(self) -> float:
        wal = sum(stat_delta(b, a, "wal_bytes") for b, a in self.stats)
        return wal / max(1, sum(t.rows_all for t in self.tallies))


def session(w: Workload, seed: int, phases: list[Phase], workdir: str,
            repeats: int = harness.SETUP_REPEATS,
            span_sink: str | None = None,
            on_done: Callable[[Served], None] | None = None) -> Outcome:
    """Preload, serve, drive each phase, drain and verify; ``on_done``
    sees the server after the last phase, before the drain."""
    gen = w.make(seed)
    preload_rows = {s: dict(r) for s, r in gen.model.rows.items()}
    op_streams = open_streams(w, gen)
    feeds = [harness.Feed(stream) for stream in op_streams]
    preload = harness.write_preload(
        os.path.join(workdir, "preload.wal"), gen.model, w.shards,
        placement if w.shards > 1 else None,
    )
    served = harness.start_served(workdir, preload, w.shards,
                                  span_sink=span_sink, repeats=repeats)
    problems: list[str] = []
    tallies, stats, side_s = [], [], 0.0
    try:
        for phase in phases:
            before = server_stats(served)
            cpu0 = served.cpu_s()
            tally, side = drive(w, gen, feeds, served, phase)
            tally.server_cpu_s = served.cpu_s() - cpu0
            stats.append((before, server_stats(served)))
            tallies.append(tally)
            side_s = side_s or side
        if on_done is not None:
            on_done(served)
        if w.shards == 1:
            with Client(port=served.port, timeout=120) as client:
                check = client.check()
            if not check["consistent"]:
                problems.append("check verb: " + "; ".join(check["violations"][:3]))
        rss = served.rss_mb()
    finally:
        code = served.stop()
    if code != 0:
        problems.append(f"server exited with code {code} on drain")
    expected = {s: dict(r) for s, r in preload_rows.items()}
    for tally in tallies:
        for op in tally.sent:
            streams.apply_effect(expected, op)
    problems += verify_state(w, expected, preload_rows, served, merged=bool(w.merge_at))
    return Outcome(tallies, stats, served.setup_s, rss, side_s, problems, preload)


#: The window's end-to-end metrics.  Tail latencies are not among
#: them: on a shared host their run-to-run spread (40-60% for p99 on
#: oltp_point and cross_shard) is wider than any usable bound, so the
#: traced run reports them unbounded as ``client.*_p99_ms``.
UNITS = {
    "ops_per_s": "req/s",
    "rows_per_s": "rows/s",
    "write_p50_ms": "ms",
    "read_p50_ms": "ms",
}


def end_to_end(w: Workload, out: Outcome) -> dict[str, tuple[float, str]]:
    window = out.tally.summary(w.blocks)
    return {
        "setup_s": (out.setup_s, "s"),
        **{k: (window[k], unit) for k, unit in UNITS.items()},
        "server_rss_mb": (out.rss_mb, "MiB"),
        "wal_bytes_per_row": (out.wal_bytes_per_row(), "B/row"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """One benchmark run; returns ``{"result": ..., "detail": ...}``."""
    w = WORKLOADS[name]
    workdir = os.path.join(root, ".perfbench_run", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    detail: dict[str, Any] = {"workload": name, "seed": seed, "trace": trace,
                              **fingerprint()}
    steal0, total0 = cpu_ticks()
    try:
        detail["calibration_before"] = calibration_rate()
        if trace:
            from perfbench import layers

            metrics, tallies, problems, extra = layers.traced_run(
                w, seed, seconds, workdir)
            detail.update(extra)
        else:
            out = session(w, seed, [Phase(seconds)], workdir)
            metrics = end_to_end(w, out)
            tallies, problems = [out.tally], out.problems
            t = out.tally
            detail["samples"] = {"read": len(t.latencies(False)),
                                 "write": len(t.latencies(True)),
                                 "blocks": w.blocks}
            detail["server_cpu_us_per_op"] = t.server_cpu_s * 1e6 / max(1, t.attempted)
            if w.shards == 1:
                # Nonzero means the client encoded inside the window.
                detail["frames_encoded_in_window"] = t.encoded_in_window
            detail["per_block"] = {
                k: [round(b[k], 3) for b in t.per_block(w.blocks)]
                for k in ("ops_per_s", "write_p50_ms", "write_p99_ms")
            }
            if t.late_ms:
                detail["generator_late_ms"] = {
                    "p50": percentile(t.late_ms, 0.5),
                    "p99": percentile(t.late_ms, 0.99),
                    "max": max(t.late_ms),
                }
            if w.merge_at:
                detail["merge_pause_ms"] = out.side_s * 1e3
        detail["calibration_after"] = calibration_rate()
        steal1, total1 = cpu_ticks()
        detail["cpu_steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(t.attempted for t in tallies) + len(problems)
    failed = sum(t.failed for t in tallies) + len(problems)
    failures = [f for t in tallies for f in t.failures] + problems
    if failures:
        detail["failures"] = failures[:10]
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "detail": detail,
    }
