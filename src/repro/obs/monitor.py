"""The ``python -m repro monitor`` terminal dashboard renderer.

Curses-free by design: the CLI polls the server's ``stats`` protocol
verb (the engine snapshot plus the server-layer ``server`` key with its
metric-registry snapshot) and repaints the terminal with one ANSI
home-and-clear escape per refresh.  Everything here is pure rendering
-- :func:`render_dashboard` takes two consecutive snapshots and returns
the screen as a string -- so the dashboard is testable without a
server, a terminal, or a clock.

Layout::

    repro monitor 127.0.0.1:7043 — every 2.0s
    requests 1204 (61.5/s) · connections 4 · inflight 2 · queue 7

    verb             count     p50      p99       errors
    insert             980   210us    2.1ms
    ...

    violations by rule
      restrict-delete · Section 5.1 (...)                    12

    group commit: 151 barriers · batch p50 4 p99 16 · wal sync p99 1.2ms
    engine: inserts 980 · deletes 12 · lookups 204 · ...
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["render_dashboard", "render_fleet_dashboard"]

#: ANSI: cursor home + clear to end of screen (repaint in place).
CLEAR = "\x1b[H\x1b[J"


def _metric_samples(stats: Mapping[str, Any], name: str) -> list[dict]:
    """The samples of one registry family out of a ``stats`` result
    (empty when the result carries no such family)."""
    server = stats.get("server")
    if not isinstance(server, Mapping):
        return []
    for family in server.get("metrics", []):
        if family.get("name") == name:
            return list(family.get("samples", []))
    return []


def _fmt_us(us: float | None) -> str:
    """A microsecond quantity with an adaptive unit (``-`` if absent)."""
    if us is None:
        return "-"
    if us >= 1_000_000:
        return f"{us / 1_000_000:.2f}s"
    if us >= 1_000:
        return f"{us / 1_000:.1f}ms"
    return f"{us:.0f}us"


def _rate(cur: Any, prev: Any, interval: float) -> str:
    """A per-second delta between two counter readings."""
    if prev is None or interval <= 0:
        return ""
    try:
        return f" ({(cur - prev) / interval:.1f}/s)"
    except TypeError:
        return ""


def render_dashboard(
    cur: Mapping[str, Any],
    prev: Mapping[str, Any] | None = None,
    interval: float = 2.0,
    title: str = "repro monitor",
) -> str:
    """One dashboard frame from a ``stats`` snapshot (and optionally
    the previous one, for throughput deltas)."""
    lines: list[str] = []
    server = cur.get("server") if isinstance(cur.get("server"), Mapping) else {}
    prev_server = (
        prev.get("server")
        if prev is not None and isinstance(prev.get("server"), Mapping)
        else {}
    )
    lines.append(f"{title} — every {interval:g}s")

    requests = server.get("requests_served", 0)
    rate = _rate(requests, prev_server.get("requests_served"), interval)
    gauges = (
        f"requests {requests}{rate}"
        f" · connections {server.get('connections', 0)}"
        f" · inflight {server.get('inflight', 0)}"
        f" · queue {server.get('queue_depth', 0)}"
    )
    if server.get("poisoned"):
        gauges += f" · POISONED: {server['poisoned']}"
    lines.append(gauges)
    repl = server.get("replication")
    if isinstance(repl, Mapping):
        if repl.get("role") == "replica":
            applied = repl.get("applied", 0)
            rate = _rate(
                applied,
                (prev_server.get("replication") or {}).get("applied")
                if isinstance(prev_server.get("replication"), Mapping)
                else None,
                interval,
            )
            lines.append(
                f"replica of {repl.get('primary', '?')}"
                f" · applied lsn {repl.get('applied_lsn', 0)}"
                f" · applied {applied} record(s){rate}"
                f" · lag {repl.get('lag', 0)} record(s)"
            )
        elif repl.get("replicas"):
            lines.append(
                f"primary · {repl.get('replicas', 0)} sync replica(s)"
                f" · shipped {repl.get('shipped', 0)} record(s)"
            )
    spans = server.get("spans")
    if isinstance(spans, Mapping):
        span_line = (
            f"spans: ring {spans.get('depth', 0)}"
            f" · exported {spans.get('exported', 0)}"
            f" · dropped {spans.get('dropped', 0)}"
        )
        sample = spans.get("sample")
        if isinstance(sample, (int, float)):
            span_line += f" · sample {sample:g}"
        lines.append(span_line)
    lines.append("")

    counts = {
        tuple(s["labels"].items()): s["value"]
        for s in _metric_samples(cur, "repro_server_requests_total")
    }
    latencies = {
        s["labels"].get("verb", ""): s["value"]
        for s in _metric_samples(cur, "repro_server_request_seconds")
    }
    errors_by_type = _metric_samples(cur, "repro_server_errors_total")
    if counts:
        lines.append(f"{'verb':<18}{'count':>8}  {'p50':>8}  {'p99':>8}")
        for labels, count in sorted(counts.items()):
            verb = dict(labels).get("verb", "")
            hist = latencies.get(verb, {})
            lines.append(
                f"{verb:<18}{int(count):>8}  "
                f"{_fmt_us(hist.get('p50_us')):>8}  "
                f"{_fmt_us(hist.get('p99_us')):>8}"
            )
        lines.append("")

    violations = _metric_samples(cur, "repro_server_violations_total")
    if violations:
        lines.append("violations by rule")
        for sample in sorted(
            violations, key=lambda s: -s["value"]
        ):
            kind = sample["labels"].get("kind", "")
            rule = sample["labels"].get("rule", "")
            lines.append(f"  {kind} · {rule:<52} {int(sample['value']):>6}")
        lines.append("")
    if errors_by_type:
        parts = ", ".join(
            f"{s['labels'].get('type', '')}={int(s['value'])}"
            for s in sorted(errors_by_type, key=lambda s: -s["value"])
        )
        lines.append(f"errors: {parts}")
        lines.append("")

    batch = _metric_samples(cur, "repro_server_commit_batch_size")
    sync = _metric_samples(cur, "repro_server_wal_sync_seconds")
    if batch and batch[0]["value"].get("count"):
        b = batch[0]["value"]
        commit = (
            f"group commit: {b['count']} barriers · "
            f"batch p50 {b.get('p50', 0):g} p99 {b.get('p99', 0):g}"
        )
        if sync and sync[0]["value"].get("count"):
            commit += (
                f" · wal sync p99 {_fmt_us(sync[0]['value'].get('p99_us'))}"
            )
        lines.append(commit)

    ind_joins = cur.get("ind_joins")
    if isinstance(ind_joins, Mapping) and ind_joins:
        lines.append("advisor: hottest inclusion dependencies")
        prev_joins = (
            prev.get("ind_joins")
            if prev is not None and isinstance(prev.get("ind_joins"), Mapping)
            else {}
        )
        hottest = sorted(ind_joins.items(), key=lambda kv: -kv[1])[:5]
        for ind, count in hottest:
            rate = _rate(count, prev_joins.get(ind), interval)
            lines.append(f"  {int(count):>8}{rate:<12} {ind}")
        mutations = cur.get("scheme_mutations")
        if isinstance(mutations, Mapping) and mutations:
            busiest = sorted(mutations.items(), key=lambda kv: -kv[1])[:5]
            lines.append(
                "  mutations: "
                + " · ".join(f"{s} {int(n)}" for s, n in busiest)
            )
        lines.append("")

    engine_keys = (
        "inserts",
        "deletes",
        "updates",
        "lookups",
        "constraint_checks",
        "wal_group_commits",
        "wal_batched_records",
        "checkpoints",
    )
    engine = " · ".join(
        f"{k} {cur.get(k, 0)}" for k in engine_keys if cur.get(k)
    )
    lines.append(f"engine: {engine or 'idle'}")
    return "\n".join(lines) + "\n"


def _worker_id(stats: Mapping[str, Any], fallback: int) -> int:
    server = stats.get("server")
    if isinstance(server, Mapping):
        shard = server.get("shard")
        if isinstance(shard, Mapping):
            try:
                return int(shard.get("worker_id", fallback))
            except (TypeError, ValueError):
                return fallback
    return fallback


def render_fleet_dashboard(
    snapshots: Sequence[Mapping[str, Any]],
    prev_snapshots: Sequence[Mapping[str, Any]] | None = None,
    interval: float = 2.0,
    title: str = "repro monitor",
) -> str:
    """One dashboard frame for a sharded fleet: a per-worker row each
    (worker id column) plus a ``fleet`` totals row.

    ``snapshots`` is the list of per-worker ``stats`` results in worker
    order, as :meth:`repro.client.ShardedClient.stats` returns them.
    ``prev_snapshots`` (same shape) enables throughput deltas, matched
    by worker id so a respawned fleet still renders.
    """
    lines: list[str] = []
    lines.append(f"{title} — {len(snapshots)} workers — every {interval:g}s")
    lines.append("")

    prev_by_id: dict[int, Mapping[str, Any]] = {}
    for i, snap in enumerate(prev_snapshots or ()):
        prev_by_id[_worker_id(snap, i)] = snap

    header = (
        f"{'worker':<8}{'requests':>10}{'rate':>12}{'conn':>6}"
        f"{'queue':>7}{'mutations':>11}{'prepares':>12}{'violations':>12}"
    )
    lines.append(header)

    totals = {
        "requests": 0,
        "conn": 0,
        "queue": 0,
        "mutations": 0,
        "committed": 0,
        "aborted": 0,
        "expired": 0,
        "violations": 0,
    }
    total_rate = 0.0
    have_rate = False
    poisoned: list[int] = []

    rows = sorted(
        (
            (_worker_id(snap, i), snap)
            for i, snap in enumerate(snapshots)
        ),
        key=lambda pair: pair[0],
    )
    for wid, snap in rows:
        server = (
            snap.get("server") if isinstance(snap.get("server"), Mapping) else {}
        )
        prev_server_snap = prev_by_id.get(wid)
        prev_server = (
            prev_server_snap.get("server")
            if prev_server_snap is not None
            and isinstance(prev_server_snap.get("server"), Mapping)
            else {}
        )
        requests = int(server.get("requests_served", 0))
        prev_requests = prev_server.get("requests_served")
        if prev_requests is not None and interval > 0:
            rate = (requests - prev_requests) / interval
            total_rate += rate
            have_rate = True
            rate_s = f"{rate:.1f}/s"
        else:
            rate_s = "-"
        conn = int(server.get("connections", 0))
        queue = int(server.get("queue_depth", 0))
        mutations = sum(
            int(snap.get(k, 0)) for k in ("inserts", "deletes", "updates")
        )
        prepares = server.get("prepares")
        if isinstance(prepares, Mapping):
            committed = int(prepares.get("committed", 0))
            aborted = int(prepares.get("aborted", 0))
            expired = int(prepares.get("expired", 0))
            prepares_s = f"{committed}/{aborted}/{expired}"
        else:
            committed = aborted = expired = 0
            prepares_s = "-"
        violations = sum(
            int(s["value"])
            for s in _metric_samples(snap, "repro_server_violations_total")
        )
        totals["requests"] += requests
        totals["conn"] += conn
        totals["queue"] += queue
        totals["mutations"] += mutations
        totals["committed"] += committed
        totals["aborted"] += aborted
        totals["expired"] += expired
        totals["violations"] += violations
        if server.get("poisoned"):
            poisoned.append(wid)
        lines.append(
            f"{'w%d' % wid:<8}{requests:>10}{rate_s:>12}{conn:>6}"
            f"{queue:>7}{mutations:>11}{prepares_s:>12}{violations:>12}"
        )

    total_rate_s = f"{total_rate:.1f}/s" if have_rate else "-"
    total_prepares_s = (
        f"{totals['committed']}/{totals['aborted']}/{totals['expired']}"
    )
    lines.append("-" * len(header))
    lines.append(
        f"{'fleet':<8}{totals['requests']:>10}{total_rate_s:>12}"
        f"{totals['conn']:>6}{totals['queue']:>7}{totals['mutations']:>11}"
        f"{total_prepares_s:>12}{totals['violations']:>12}"
    )
    if poisoned:
        lines.append("")
        lines.append(
            "POISONED workers: " + ", ".join(f"w{w}" for w in poisoned)
        )
    lines.append("")
    lines.append("prepares column: committed/aborted/expired")
    return "\n".join(lines) + "\n"
