"""The traced run: where each workload's time goes, layer by layer.

A traced run serves the workload in one session on a server started
with ``serve --span-sink FILE --span-sample 0``, in two halves of the
window: untraced, then with a sampled span context on every request,
so exactly the second half's requests are traced.  The per-layer
numbers come from

* the client's own timers around the wire codec (``client.*``), and
  captured frames replayed through ``decode_frame``/``decode_row`` and
  ``encode_frame`` (``protocol.*``);
* the server's spans -- each request's ``server:<verb>`` span and its
  ``queue-wait``/``apply``/``group-commit``/``prepare`` children
  (``server.io_ms``, ``service.*``) -- and the ``stats`` counters
  before and after (``engine.*_per_op``, ``wal.*``);
* in-process replays through the public engine API: the same op
  stream through ``Database`` with an fsync'd file WAL (``engine.*_us``),
  ``Database.recover`` on the preloaded log (``recovery.*``), and the
  ``Merge``/``Remove`` phases of the online merge (``merge.*``);
* timers around every per-shard call of ``ShardedClient`` (``router.*``).

A layer a workload does not use reports 0, which is the prediction for
it.  ``spans.overhead_pct`` is the traced half's throughput loss
against the untraced half; end-to-end metrics never come from here.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import defaultdict
from typing import Any

from repro.client import Client
from repro.constraints.checker import ConsistencyChecker
from repro.core.merge import merge
from repro.core.remove import remove_all
from repro.engine.database import ConstraintViolationError, Database
from repro.engine.query import QueryEngine
from repro.engine.wal import FileStorage, WriteAheadLog
from repro.obs.spans import encode_context, new_span_id, new_trace_id, read_span_lines
from repro.relational.state import DatabaseState
from repro.server.protocol import decode_frame, decode_row, encode_frame, request_frame
from repro.workloads.university import university_relational

from perfbench import streams
from perfbench.bench import Phase, Workload, open_streams, session
from perfbench.harness import FrameHooks, percentile

#: Seconds spent replaying the op stream in process.
REPLAY_S = 1.5
#: Frames kept for the protocol replay.
CAPTURE = 400

UNITS = {
    "client.encode_us": "us",
    "client.decode_us": "us",
    "client.req_bytes": "B",
    "client.resp_bytes": "B",
    "client.write_p99_ms": "ms",
    "client.read_p99_ms": "ms",
    "protocol.decode_us_per_row": "us",
    "protocol.encode_us_per_resp": "us",
    "server.io_ms": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.apply_ms_p50": "ms",
    "service.apply_ms_p99": "ms",
    "service.group_commit_ms_p50": "ms",
    "service.group_commit_ms_p99": "ms",
    "service.commit_batch_size": "count",
    "service.busy_frac": "frac",
    "service.prepare_hold_ms": "ms",
    "engine.insert_us": "us",
    "engine.update_us": "us",
    "engine.delete_us": "us",
    "engine.get_us": "us",
    "engine.join_to_us": "us",
    "engine.find_referencing_us": "us",
    "engine.insert_many_us_per_row": "us",
    "engine.apply_batch_us_per_op": "us",
    "engine.lookups_per_op": "count",
    "engine.constraint_checks_per_op": "count",
    "engine.tuples_scanned_per_op": "count",
    "engine.index_miss_frac": "frac",
    "wal.records_per_row": "count",
    "wal.sync_ms_p50": "ms",
    "wal.sync_ms_p99": "ms",
    "wal.syncs_per_mutation": "count",
    "recovery.recover_s": "s",
    "recovery.records_replayed": "count",
    "router.prepare_ms": "ms",
    "router.exists_ms": "ms",
    "router.commit_ms": "ms",
    "router.round_trips_per_batch": "count",
    "router.exists_probes_per_batch": "count",
    "merge.pause_ms": "ms",
    "merge.state_ms": "ms",
    "merge.plan_ms": "ms",
    "merge.eta_ms": "ms",
    "merge.verify_ms": "ms",
    "merge.adopt_ms": "ms",
    "merge.member_rows": "count",
    "merge.nonmember_rows": "count",
    "spans.overhead_pct": "%",
    "coverage.pct": "%",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class TraceHooks(FrameHooks):
    """Client-side timers for the pipelined driver.  Every request gets
    its own trace, so its server span can be matched to the latency the
    client saw; ``seen`` maps trace id -> (verb, latency s)."""

    def __init__(self):
        self.encode_s: list[float] = []
        self.decode_s: list[float] = []
        self.req_bytes = 0
        self.resp_bytes = 0
        self.requests: list[bytes] = []
        self.responses: list[dict] = []
        self.seen: dict[str, tuple[str, float]] = {}
        self._open: dict[tuple[int, int], tuple[str, str]] = {}

    def before_send(self, feed, rid, op, params):
        trace_id = new_trace_id()
        self._open[(id(feed), rid)] = (trace_id, op.verb)
        return dict(params, span=encode_context(trace_id, new_span_id(), True))

    def encoded(self, feed, rid, data, seconds):
        self.encode_s.append(seconds)
        self.req_bytes += len(data)
        if len(self.requests) < CAPTURE:
            self.requests.append(data)

    def decoded(self, feed, rid, line, frame, seconds, latency_s):
        self.decode_s.append(seconds)
        self.resp_bytes += len(line) + 1
        if len(self.responses) < CAPTURE:
            self.responses.append(frame)
        # Frames encoded in the untraced half carry no span context.
        entry = self._open.pop((id(feed), rid), None)
        if entry is not None:
            trace_id, verb = entry
            self.seen[trace_id] = (verb, latency_s)


class RouterTimers:
    """Timers around every per-shard call a ``ShardedClient`` makes."""

    def __init__(self, hooks: TraceHooks):
        self.hooks = hooks
        self.calls: dict[str, list[float]] = defaultdict(list)
        self.batches = 0
        self.requests: list[tuple[str, dict]] = []
        self.results: list[Any] = []

    def install(self, client) -> None:
        for shard in client.shard_map.shards():
            conn = client.shard_client(shard)
            conn.call = self._timed(conn.call)
        apply_batch = client.apply_batch

        def counted(ops):
            self.batches += 1
            return apply_batch(ops)

        client.apply_batch = counted

    def metrics(self) -> dict[str, float]:
        batches = max(1, self.batches)
        calls = self.calls
        return {
            "router.prepare_ms": sum(calls["batch_prepare"]) * 1e3 / batches,
            "router.exists_ms": sum(calls["exists"]) * 1e3 / batches,
            "router.commit_ms": sum(calls["batch_commit"]) * 1e3 / batches,
            "router.round_trips_per_batch": sum(
                len(calls[v]) for v in ("batch_prepare", "exists", "batch_commit",
                                        "batch_abort")) / batches,
            "router.exists_probes_per_batch": len(calls["exists"]) / batches,
        }

    def _timed(self, call):
        def timed(verb, *, trace_id=None, span_ctx=None, **params):
            trace = new_trace_id()
            if span_ctx is None:
                span_ctx = encode_context(trace, new_span_id(), True)
            else:  # a context the caller chose: keep it, leave it unmatched
                trace = None
            if len(self.requests) < CAPTURE:
                self.requests.append((verb, dict(params)))
            start = time.perf_counter()
            try:
                result = call(verb, trace_id=trace_id, span_ctx=span_ctx, **params)
            finally:
                elapsed = time.perf_counter() - start
                self.calls[verb].append(elapsed)
                if trace is not None:
                    self.hooks.seen[trace] = (verb, elapsed)
            if len(self.results) < CAPTURE:
                self.results.append(result)
            return result

        return timed


# -- span analysis -------------------------------------------------------------


def _busy_s(spans: list[dict]) -> tuple[float, float]:
    """Seconds covered by the union of one process's writer spans
    (``apply``/``group-commit``/``prepare``), and the extent of all its
    spans."""
    if not spans:
        return 0.0, 0.0
    work = sorted(
        (s["start_s"], s.get("end_s", s["start_s"])) for s in spans
        if s["name"] in ("apply", "group-commit", "prepare")
    )
    busy, reach = 0.0, float("-inf")
    for start, end in work:
        if end > reach:
            busy += end - max(start, reach)
            reach = end
    extent = max(s.get("end_s", s["start_s"]) for s in spans) - min(
        s["start_s"] for s in spans)
    return busy, extent


def span_metrics(paths: list[str], hooks: TraceHooks) -> tuple[dict, dict]:
    """Per-layer numbers from the server span files (one per process),
    matched to the client latencies in ``hooks.seen``."""
    spans, busy_fracs = [], []
    for path in paths:
        if os.path.exists(path):
            with open(path) as fh:
                mine = read_span_lines(fh)
            busy, extent = _busy_s(mine)
            busy_fracs.append(busy / extent if extent else 0.0)
            spans.extend(mine)
    by_id = {s["span_id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.get("parent_id") in by_id:
            children[s["parent_id"]].append(s)
    dur = lambda s: (s.get("end_s", s["start_s"]) - s["start_s"]) * 1e3  # noqa: E731
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(dur(s))
    io_ms, covered, observed = [], 0.0, 0.0
    remainder = defaultdict(float)
    time_by_verb = defaultdict(float)
    for s in spans:
        if s.get("kind") != "server" or not s["name"].startswith("server:"):
            continue
        time_by_verb[s["name"]] += dur(s) / 1e3
        seen = hooks.seen.get(s["trace_id"])
        if seen is None or s.get("parent_id") in by_id:
            continue
        verb, latency_s = seen
        server_ms = dur(s)
        kids = sum(dur(c) for c in children[s["span_id"]])
        io = latency_s * 1e3 - server_ms
        io_ms.append(io)
        observed += latency_s * 1e3
        covered += io + kids
        remainder[verb] += server_ms - kids
    total_remainder = sum(remainder.values()) or 1.0
    metrics = {
        "server.io_ms": percentile(io_ms, 0.5),
        "service.queue_wait_ms_p50": percentile(named["queue-wait"], 0.5),
        "service.queue_wait_ms_p99": percentile(named["queue-wait"], 0.99),
        "service.apply_ms_p50": percentile(named["apply"], 0.5),
        "service.apply_ms_p99": percentile(named["apply"], 0.99),
        "service.group_commit_ms_p50": percentile(named["group-commit"], 0.5),
        "service.group_commit_ms_p99": percentile(named["group-commit"], 0.99),
        "service.prepare_hold_ms": percentile(named["prepare"], 0.5),
        "service.busy_frac": _mean(busy_fracs),
        "coverage.pct": 100.0 * covered / observed if observed else 0.0,
    }
    detail = {
        "spans_read": len(spans),
        "requests_matched": len(io_ms),
        "server_span_s_by_verb": dict(sorted(time_by_verb.items())),
        "coverage_remainder": {
            "where": "server span self time: decoding the request's rows, "
                     "dispatch, reads executed inline, encoding the response "
                     "(no child span covers them)",
            "share_by_verb": {v: r / total_remainder for v, r in sorted(remainder.items())},
        },
    }
    return metrics, detail


def histogram_quantile(text: str, name: str, q: float) -> float:
    """Quantile ``q`` of a Prometheus histogram in exposition ``text``,
    interpolated inside its bucket the way ``histogram_quantile`` does;
    summed over every series of ``name``."""
    buckets: dict[float, float] = defaultdict(float)
    for line in text.splitlines():
        if line.startswith(name + "_bucket{"):
            le = line.split('le="', 1)[1].split('"', 1)[0]
            buckets[float("inf") if le == "+Inf" else float(le)] += float(line.split()[-1])
    if not buckets:
        return 0.0
    bounds = sorted(buckets)
    total = buckets[bounds[-1]]
    if total == 0:
        return 0.0
    rank, lower, below = q * total, 0.0, 0.0
    for bound in bounds:
        if buckets[bound] >= rank:
            if bound == float("inf"):
                return lower
            span = buckets[bound] - below
            return lower + (bound - lower) * ((rank - below) / span if span else 1.0)
        lower, below = bound, buckets[bound]
    return lower


def stats_metrics(before: list[dict], after: list[dict], tally, exposition: str) -> dict:
    """Per-op ratios of the ``stats`` counters across the traced phase,
    and the server's WAL-sync histogram."""
    d = lambda key: sum(a.get(key, 0) - b.get(key, 0) for b, a in zip(before, after))  # noqa: E731
    ops = max(1, tally.attempted)
    hits, misses = d("index_hits"), d("index_misses")
    commits = d("wal_group_commits")
    sync = "repro_server_wal_sync_seconds"
    return {
        "engine.lookups_per_op": d("lookups") / ops,
        "engine.constraint_checks_per_op": d("constraint_checks") / ops,
        "engine.tuples_scanned_per_op": d("tuples_scanned") / ops,
        "engine.index_miss_frac": misses / (hits + misses) if hits + misses else 0.0,
        "service.commit_batch_size": d("wal_batched_records") / commits if commits else 0.0,
        "wal.records_per_row": d("wal_records") / max(1, tally.rows_all),
        "wal.syncs_per_mutation": commits / max(1, tally.writes_all),
        "wal.sync_ms_p50": histogram_quantile(exposition, sync, 0.50) * 1e3,
        "wal.sync_ms_p99": histogram_quantile(exposition, sync, 0.99) * 1e3,
    }


# -- in-process replays --------------------------------------------------------------


def _engine_call(db: Database, query: QueryEngine, op: streams.Op):
    p = op.params
    pk = tuple(p["pk"]) if "pk" in p else None
    if op.verb == "insert":
        return db.insert(p["scheme"], p["row"])
    if op.verb == "update":
        return db.update(p["scheme"], pk, p["updates"])
    if op.verb == "delete":
        return db.delete(p["scheme"], pk)
    if op.verb == "insert_many":
        return db.insert_many(p["scheme"], p["rows"])
    if op.verb == "apply_batch":
        return db.apply_batch(
            (o[0], o[1], tuple(o[2]), *o[3:]) if o[0] != "insert" else tuple(o)
            for o in p["ops"]
        )
    if op.verb == "get":
        return db.get(p["scheme"], pk)
    row = db.get(p["scheme"], pk)
    if op.verb == "join_to":
        return query.join_to(row, p["via"], p["target_scheme"], p["target_attrs"])
    return query.find_referencing(row, p["source_scheme"], p["via"], p["target_attrs"])


def engine_replay(w: Workload, seed: int, workdir: str) -> tuple[dict, list[str]]:
    """The workload's op stream through an in-process ``Database`` with
    an fsync'd file WAL, synced after every mutation like a group
    commit of one; per-verb engine time, sync excluded."""
    gen = w.make(seed)
    schema = university_relational()
    storage = FileStorage(os.path.join(workdir, "replay.wal"), fsync=True, buffered=True)
    db = Database(schema, wal=WriteAheadLog(storage))
    db.load_state(DatabaseState.for_schema(schema, streams.preload_rows(gen.model)),
                  validate=False)
    db.sync_wal()
    query = QueryEngine(db)
    times: dict[str, list[float]] = defaultdict(list)
    units: dict[str, int] = defaultdict(int)
    problems = []
    conns = open_streams(w, gen)
    deadline = time.perf_counter() + REPLAY_S
    i = 0
    try:
        while time.perf_counter() < deadline:
            op = next(conns[i % len(conns)])
            i += 1
            start = time.perf_counter()
            try:
                _engine_call(db, query, op)
                rejected = None
            except ConstraintViolationError as exc:
                rejected = exc.kind
            elapsed = time.perf_counter() - start
            if rejected != op.reject:
                problems.append(f"in-process {op.verb}: rejected={rejected}, "
                                f"expected {op.reject}")
            if op.write:
                db.sync_wal()
            times[op.verb].append(elapsed)
            if op.verb == "insert_many":
                units[op.verb] += len(op.params["rows"])
            elif op.verb == "apply_batch":
                units[op.verb] += len(op.params["ops"])
    finally:
        db.wal.close()
    us = lambda verb: percentile(times[verb], 0.5) * 1e6  # noqa: E731
    per_unit = lambda verb: sum(times[verb]) * 1e6 / units[verb] if units[verb] else 0.0  # noqa: E731
    return {
        "engine.insert_us": us("insert"),
        "engine.update_us": us("update"),
        "engine.delete_us": us("delete"),
        "engine.get_us": us("get"),
        "engine.join_to_us": us("join_to"),
        "engine.find_referencing_us": us("find_referencing"),
        "engine.insert_many_us_per_row": per_unit("insert_many"),
        "engine.apply_batch_us_per_op": per_unit("apply_batch"),
    }, problems[:5]


def recovery_metrics(preload: list[str], workdir: str) -> dict:
    """``Database.recover`` (with its consistency re-check, as ``serve``
    runs it) on a copy of each preloaded log."""
    schema = university_relational()
    seconds, replayed = 0.0, 0
    for i, path in enumerate(preload):
        copy = os.path.join(workdir, f"recover{i}.wal")
        shutil.copyfile(path, copy)
        start = time.perf_counter()
        db = Database.recover(schema, copy, verify=len(preload) == 1)
        seconds += time.perf_counter() - start
        replayed += db.recovery_report.records_replayed
        db.wal.close()
    return {"recovery.recover_s": seconds, "recovery.records_replayed": replayed}


def merge_phases(gen) -> dict:
    """The online merge's phases, in process, on the preloaded state."""
    schema = university_relational()
    db = Database(schema)
    db.load_state(DatabaseState.for_schema(schema, streams.preload_rows(gen.model)))
    members = list(streams.MERGE_MEMBERS)
    t0 = time.perf_counter()
    state = db.state()
    t1 = time.perf_counter()
    simplified = remove_all(merge(schema, members))
    t2 = time.perf_counter()
    merged_state = simplified.forward.apply(state)
    t3 = time.perf_counter()
    violations = ConsistencyChecker(simplified.schema).violations(merged_state)
    t4 = time.perf_counter()
    Database(simplified.schema).load_state(merged_state)
    t5 = time.perf_counter()
    if violations:
        raise RuntimeError(f"merged preload is inconsistent: {violations[:3]}")
    rows = {s: len(r) for s, r in gen.model.rows.items()}
    return {
        "merge.state_ms": (t1 - t0) * 1e3,
        "merge.plan_ms": (t2 - t1) * 1e3,
        "merge.eta_ms": (t3 - t2) * 1e3,
        "merge.verify_ms": (t4 - t3) * 1e3,
        "merge.adopt_ms": (t5 - t4) * 1e3,
        "merge.member_rows": sum(rows[s] for s in members),
        "merge.nonmember_rows": sum(n for s, n in rows.items() if s not in members),
    }


def protocol_metrics(requests: list[bytes], responses: list[dict]) -> dict:
    """Captured request lines through ``decode_frame``/``decode_row``
    and captured responses through ``encode_frame``."""
    rows = 0
    start = time.perf_counter()
    for line in requests:
        frame = decode_frame(line)
        payloads = []
        if "row" in frame:
            payloads.append(frame["row"])
        payloads += frame.get("rows", [])
        payloads += [o[-1] for o in frame.get("ops", []) if isinstance(o[-1], dict)]
        for payload in payloads:
            decode_row(payload)
        rows += max(1, len(payloads))
    decode_s = time.perf_counter() - start
    start = time.perf_counter()
    for frame in responses:
        encode_frame(frame)
    encode_s = time.perf_counter() - start
    return {
        "protocol.decode_us_per_row": decode_s * 1e6 / rows if rows else 0.0,
        "protocol.encode_us_per_resp": encode_s * 1e6 / len(responses) if responses else 0.0,
    }


# -- the traced run -------------------------------------------------------------------


def traced_run(w: Workload, seed: int, seconds: float, workdir: str):
    """One session in two halves -- untraced, then traced -- followed
    by the in-process replays; returns the per-layer table."""
    hooks = TraceHooks()
    router = RouterTimers(hooks) if w.shards > 1 else None
    exposition: list[str] = []
    sink = os.path.join(workdir, "spans.jsonl")
    # The merge can run once per session: in the untraced half, whose
    # timing is the one reported.
    phases = [
        Phase(seconds / 2),
        Phase(seconds / 2, hooks=hooks if router is None else None,
              client_hook=router.install if router else None, side=False),
    ]
    out = session(w, seed, phases, workdir, repeats=1, span_sink=sink,
                  on_done=lambda served: exposition.extend(
                      _metrics_text(port) for port in served.ports()))
    plain, traced = out.tallies
    sink_paths = [sink] if w.shards == 1 else [f"{sink}.w{i}" for i in range(w.shards)]
    metrics: dict[str, float] = {name: 0.0 for name in UNITS}
    span_part, detail = span_metrics(sink_paths, hooks)
    metrics.update(span_part)
    metrics.update(stats_metrics(*out.stats[1], traced, "\n".join(exposition)))

    codec_requests, codec_responses = hooks.requests, hooks.responses
    if router is not None:
        codec_requests, codec_responses, enc, dec = _replay_client_codec(router)
        hooks.encode_s, hooks.decode_s = enc, dec
        metrics.update(router.metrics())
    metrics.update({
        "client.encode_us": _mean(hooks.encode_s) * 1e6,
        "client.decode_us": _mean(hooks.decode_s) * 1e6,
        "client.req_bytes": hooks.req_bytes / max(1, len(hooks.encode_s)),
        "client.resp_bytes": hooks.resp_bytes / max(1, len(hooks.decode_s)),
    })
    metrics.update(protocol_metrics(codec_requests, codec_responses))
    replay, replay_problems = engine_replay(w, seed, workdir)
    metrics.update(replay)
    metrics.update(recovery_metrics(out.preload, workdir))
    if w.merge_at:
        metrics.update(merge_phases(w.make(seed)))
        metrics["merge.pause_ms"] = out.side_s * 1e3
    tails = plain.summary(w.blocks)
    metrics["client.write_p99_ms"] = tails["write_p99_ms"]
    metrics["client.read_p99_ms"] = tails["read_p99_ms"]
    plain_ops, traced_ops = _ops_per_s(plain), _ops_per_s(traced)
    metrics["spans.overhead_pct"] = (
        100.0 * (plain_ops - traced_ops) / plain_ops if plain_ops else 0.0
    )
    detail["ops_per_s"] = {"untraced": plain_ops, "traced": traced_ops}
    coverage = metrics["coverage.pct"]
    detail["coverage_check"] = (
        "server.io + service spans within 10% of client latency"
        if abs(100.0 - coverage) <= 10.0 else
        f"{100.0 - coverage:.1f}% of client latency outside the layers; "
        "see coverage_remainder"
    )
    table = {name: (metrics[name], UNITS[name]) for name in UNITS}
    return table, out.tallies, out.problems + replay_problems, {"layers": detail}


def _metrics_text(port: int) -> str:
    with Client(port=port, timeout=120) as client:
        return client.metrics()


def _ops_per_s(tally) -> float:
    return len(tally.samples) / tally.wall_s if tally.wall_s else 0.0


def _replay_client_codec(router: RouterTimers):
    """Client codec cost for the blocking sharded client, whose codec
    runs inside ``Client.call``: the captured requests and results
    re-encoded and decoded the same way, one frame at a time."""
    lines, responses, enc, dec = [], [], [], []
    for i, (verb, params) in enumerate(router.requests):
        start = time.perf_counter()
        line = encode_frame(request_frame(i, verb, **params))
        enc.append(time.perf_counter() - start)
        lines.append(line)
    for i, result in enumerate(router.results):
        response = encode_frame({"id": i, "ok": True, "result": result})
        start = time.perf_counter()
        responses.append(decode_frame(response))
        dec.append(time.perf_counter() - start)
    router.hooks.req_bytes = sum(map(len, lines))
    router.hooks.resp_bytes = sum(
        len(encode_frame({"id": i, "ok": True, "result": r}))
        for i, r in enumerate(router.results))
    return lines, responses, enc, dec
