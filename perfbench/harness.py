"""Server lifecycle and load generation for the benchmark.

A run writes the seeded preload as a WAL checkpoint through
:class:`~repro.engine.database.Database`, then starts ``repro serve
--wal --fsync`` on copies of it.  Set-up time is spawn to readiness,
which includes recovering that log.  Load comes from one thread:
:func:`closed_loop` keeps a fixed number of pipelined requests in
flight on each connection, and :func:`open_loop` sends on a fixed
schedule and times each request from when it was due.  Every response
is checked against the answer its op predicts.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import shutil
import signal
import socket
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.engine.database import Database
from repro.engine.wal import FileStorage, WriteAheadLog
from repro.io.relational_json import relational_schema_to_dict
from repro.relational.state import DatabaseState
from repro.server.protocol import decode_frame, encode_frame, request_frame
from repro.server.supervisor import FleetProcess, ServerProcess
from repro.workloads.university import university_relational

from perfbench.streams import KEY, Model, Op, answer_ok, preload_rows

#: How many times set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Requests a closed loop encodes ahead of its window, as a multiple of
#: what the warm-up's completion rate would send in it.
PREFETCH_MARGIN = 2.0


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by nearest rank; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


# -- preload and server processes ----------------------------------------------


def write_schema(path: str) -> None:
    with open(path, "w") as fh:
        json.dump(relational_schema_to_dict(university_relational()), fh)


def write_preload(
    path: str,
    model: Model,
    shards: int = 1,
    placement: Callable[[str, str], int] | None = None,
) -> list[str]:
    """Write the model's rows as WAL checkpoints; one log per shard
    (``path.w<i>`` for a fleet).  Returns the log paths."""
    schema = university_relational()
    rows = preload_rows(model)
    paths = [path] if shards == 1 else [f"{path}.w{i}" for i in range(shards)]
    for shard, wal_path in enumerate(paths):
        mine = rows
        if shards > 1:
            mine = {
                s: [r for r in rs if placement(s, r[KEY[s]]) == shard]
                for s, rs in rows.items()
            }
        storage = FileStorage(wal_path)
        db = Database(schema, wal=WriteAheadLog(storage))
        db.load_state(DatabaseState.for_schema(schema, mine), validate=False)
        db.checkpoint()
        db.wal.close()
    return paths


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a live process has used (0.0 if
    gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process, MiB (0.0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Served:
    """A running server (or fleet) the workload drives."""

    proc: ServerProcess | FleetProcess
    wal_paths: list[str]
    setup_s: float

    @property
    def port(self) -> int:
        return self.proc.port

    def ports(self) -> list[int]:
        """Direct per-worker ports (fleet) or the one server port."""
        if isinstance(self.proc, FleetProcess):
            return [self.proc.worker_ports[i] for i in sorted(self.proc.worker_ports)]
        return [self.proc.port]

    def pids(self) -> list[int]:
        if isinstance(self.proc, FleetProcess):
            return [self.proc.proc.pid, *self.proc.worker_pids.values()]
        return [self.proc.proc.pid]

    def cpu_s(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids())

    def rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def stop(self) -> int:
        return stop_process(self.proc)


def stop_process(proc: ServerProcess | FleetProcess) -> int:
    """Graceful drain; the exit code.  The fleet supervisor announces
    readiness before it installs its SIGTERM handler, so a stop in that
    window kills it and leaves its workers running: any worker that
    outlives the supervisor is sent SIGTERM (it drains) and, failing
    that, SIGKILL, and waited for."""
    code = proc.stop()
    if isinstance(proc, FleetProcess):
        survivors = list(proc.worker_pids.values())
        for sig in (signal.SIGTERM, signal.SIGKILL):
            survivors = [pid for pid in survivors if _signal(pid, sig)]
            deadline = time.monotonic() + 30
            while survivors and time.monotonic() < deadline:
                time.sleep(0.05)
                survivors = [pid for pid in survivors if _signal(pid, 0)]
    return code


def _signal(pid: int, sig: int) -> bool:
    """Send ``sig`` to ``pid``; whether the process still runs (an
    exited one waiting to be reaped does not)."""
    try:
        os.kill(pid, sig)
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


def start_served(
    workdir: str,
    preload_paths: list[str],
    shards: int = 1,
    span_sink: str | None = None,
    repeats: int = SETUP_REPEATS,
) -> Served:
    """Start the server ``repeats`` times on fresh copies of the
    preload, timing spawn to readiness; the last one keeps running.
    ``setup_s`` is the median of the timings."""
    schema = os.path.join(workdir, "schema.json")
    if not os.path.exists(schema):
        write_schema(schema)
    extra = ("--fsync",)
    if span_sink is not None:
        # Sample no trace of the server's own: only requests that
        # arrive with a sampled span context are traced.
        extra += ("--span-sink", span_sink, "--span-sample", "0")
    timings = []
    for attempt in range(repeats):
        wal = os.path.join(workdir, f"serve{attempt}.wal")
        wal_paths = [wal] if shards == 1 else [f"{wal}.w{i}" for i in range(shards)]
        for src, dst in zip(preload_paths, wal_paths):
            shutil.copyfile(src, dst)
        start = time.perf_counter()
        if shards == 1:
            proc = ServerProcess(schema, wal=wal, extra_args=extra, timeout=120)
        else:
            proc = FleetProcess(
                schema, shards, wal=wal, extra_args=extra, timeout=120
            )
        proc.wait_ready()
        timings.append(time.perf_counter() - start)
        recovered = sum(line.count("recovered ") for line in proc.lines)
        if recovered < shards:
            stop_process(proc)
            raise RuntimeError(
                "server did not recover its preload:\n" + "\n".join(proc.lines)
            )
        if attempt < repeats - 1:
            # Nothing was written to this copy: no drain needed.
            if isinstance(proc, ServerProcess):
                proc.kill()
            else:
                stop_process(proc)
    return Served(proc, wal_paths, statistics.median(timings))


# -- load generation -------------------------------------------------------------


@dataclass
class Tally:
    """What one run's traffic did: every checked answer, and for each
    request inside the measured window ``(done_at_s, latency_ms, write,
    rows_committed)``, with ``done_at_s`` relative to the window start."""

    samples: list[tuple[float, float, bool, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rows_all: int = 0  # rows committed, warm-up included
    writes_all: int = 0  # mutations committed, warm-up included
    wall_s: float = 0.0
    window_start: float = 0.0
    server_cpu_s: float = 0.0
    encoded_in_window: int = 0  # pipelined frames the prefetch did not cover
    late_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    sent: list[Op] = field(default_factory=list)  # every op sent, in order

    def settle(self, op: Op, frame: dict, latency_s: float, measured: bool,
               done_at: float) -> None:
        """Check one response and, inside the window, record it."""
        self.attempted += 1
        ok = answer_ok(op, frame)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(
                    f"{op.verb} {json.dumps(op.params)[:160]} -> "
                    f"{json.dumps(frame)[:240]}"
                )
        committed = ok and op.write and op.reject is None
        if committed:
            self.rows_all += op.rows
            self.writes_all += 1
        if measured:
            self.samples.append((
                done_at - self.window_start,
                latency_s * 1e3,
                op.write,
                op.rows if committed else 0,
            ))

    def latencies(self, write: bool) -> list[float]:
        return [s[1] for s in self.samples if s[2] == write]

    def summary(self, blocks: int) -> dict[str, float]:
        """Throughput and latency percentiles of the window, each the
        median over ``blocks`` equal slices of it (by completion time),
        so one slow stretch of the host moves them less."""
        per = self.per_block(blocks)
        return {k: statistics.median(p[k] for p in per) for k in per[0]}

    def per_block(self, blocks: int) -> list[dict[str, float]]:
        """Throughput and latency percentiles of each slice."""
        width = self.wall_s / blocks
        slices: list[list] = [[] for _ in range(blocks)]
        for sample in self.samples:
            slices[min(blocks - 1, int(sample[0] / width))].append(sample)
        per = []
        for part in slices:
            writes = [s[1] for s in part if s[2]]
            reads = [s[1] for s in part if not s[2]]
            per.append({
                "ops_per_s": len(part) / width,
                "rows_per_s": sum(s[3] for s in part) / width,
                "write_p50_ms": percentile(writes, 0.50),
                "write_p99_ms": percentile(writes, 0.99),
                "read_p50_ms": percentile(reads, 0.50),
                "read_p99_ms": percentile(reads, 0.99),
            })
        return per


class Feed:
    """One connection's op stream, encoded into request frames ahead
    of sending.  It outlives the connection, so frames encoded but not
    sent in one phase of a session are the first sent in the next."""

    def __init__(self, stream: Iterator[Op]):
        self.stream = stream
        self.next_id = 0
        self.ready: deque = deque()  # (rid, op, frame bytes)
        self.inline = 0  # frames encoded at send time: the prefetch ran out
        self.hooks: "FrameHooks | None" = None  # what ``ready`` was encoded with

    def encode(self, hooks: "FrameHooks | None") -> tuple[int, Op, bytes]:
        self.next_id += 1
        return self._encode(self.next_id, next(self.stream), hooks)

    def _encode(self, rid: int, op: Op, hooks: "FrameHooks | None") -> tuple[int, Op, bytes]:
        params = op.params
        if hooks is None:
            return rid, op, encode_frame(request_frame(rid, op.verb, **params))
        params = hooks.before_send(self, rid, op, params)
        t0 = time.perf_counter()
        data = encode_frame(request_frame(rid, op.verb, **params))
        hooks.encoded(self, rid, data, time.perf_counter() - t0)
        return rid, op, data

    def prepare(self, n: int, hooks: "FrameHooks | None") -> None:
        """Encode up to ``n`` requests ahead of sending them.  Frames
        left from a phase with other hooks are encoded again, so every
        frame a phase sends carries that phase's instrumentation."""
        if hooks is not self.hooks:
            self.ready = deque(self._encode(rid, op, hooks) for rid, op, _ in self.ready)
            self.hooks = hooks
        for _ in range(n - len(self.ready)):
            self.ready.append(self.encode(hooks))

    def take(self, hooks: "FrameHooks | None") -> tuple[int, Op, bytes]:
        if self.ready:
            return self.ready.popleft()
        self.inline += 1
        return self.encode(hooks)


class Conn:
    """One pipelined connection speaking the wire codec directly.

    While the window runs the client only moves bytes: request frames
    come encoded from the :class:`Feed`, and responses are kept raw and
    decoded and checked after the window (:meth:`settle`), so the client
    takes as little CPU as possible from the server it shares the host
    with."""

    def __init__(self, port: int, feed: Feed, hooks: "FrameHooks | None" = None):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.feed = feed
        self.hooks = hooks
        self.sent: list = []  # (rid, op, timed_from, measured)
        self.received: list = []  # (t_received, response line)
        self.buf = b""

    @property
    def outstanding(self) -> int:
        return len(self.sent) - len(self.received)

    def send(self, timed_from: float | None, measured: bool) -> None:
        rid, op, data = self.feed.take(self.hooks)
        self.sock.sendall(data)
        if timed_from is None:
            timed_from = time.perf_counter()
        self.sent.append((rid, op, timed_from, measured))

    def receive(self) -> int:
        """Take every complete response now readable; how many."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        now = time.perf_counter()
        *lines, self.buf = (self.buf + chunk).split(b"\n")
        self.received.extend((now, line) for line in lines)
        return len(lines)

    def settle(self, tally: "Tally") -> None:
        """Decode and check every response, in request order."""
        hooks = self.hooks
        for (rid, op, t0, measured), (t1, line) in zip(self.sent, self.received):
            start = time.perf_counter()
            frame = decode_frame(line)
            if hooks is not None:
                hooks.decoded(self.feed, rid, line, frame,
                              time.perf_counter() - start, t1 - t0)
            if frame.get("id") != rid:
                raise RuntimeError(f"response id {frame.get('id')} != {rid}")
            tally.settle(op, frame, t1 - t0, measured, t1)
        tally.sent.extend(op for _, op, _, _ in self.sent)

    def close(self) -> None:
        self.sock.close()


class FrameHooks:
    """Traced-run instrumentation around the client's codec calls
    (the untraced driver passes ``None`` and pays nothing)."""

    def before_send(self, feed: Feed, rid: int, op: Op, params: dict) -> dict:
        return params

    def encoded(self, feed: Feed, rid: int, data: bytes, seconds: float) -> None:
        pass

    def decoded(self, feed: Feed, rid: int, line: bytes, frame: dict,
                seconds: float, latency_s: float) -> None:
        pass


def _inline(conns: list[Conn]) -> int:
    """Frames the connections' feeds have encoded at send time so far."""
    return sum(c.feed.inline for c in conns)


def closed_loop(
    ports: list[int],
    feeds: list[Feed],
    depth: int,
    warmup_s: float,
    seconds: float,
    warmup_fill: int,
    hooks: FrameHooks | None = None,
) -> Tally:
    """Keep ``depth`` requests in flight on each connection; each is
    timed from its send.  The first ``warmup_s`` seconds are checked
    but not measured.  ``warmup_fill`` requests per connection are
    encoded before the warm-up; when it ends, sending pauses while each
    connection's feed is topped up to ``PREFETCH_MARGIN`` times what
    the warm-up's rate would send in the window, and the window starts
    after that."""
    tally = Tally()
    conns = [Conn(port, feed, hooks) for port, feed in zip(ports, feeds)]
    sel = selectors.DefaultSelector()
    for conn in conns:
        conn.feed.prepare(warmup_fill, hooks)
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    try:
        begin = time.perf_counter()
        warm_end = begin + warmup_s
        window_start = deadline = None
        for conn in conns:
            for _ in range(depth):
                conn.send(None, False)
        while any(c.outstanding for c in conns):
            for key, _ in sel.select(timeout=60):
                conn = key.data
                conn.receive()
                now = time.perf_counter()
                if window_start is None and now >= warm_end:
                    rate = sum(len(c.received) for c in conns) / (now - begin) / len(conns)
                    for c in conns:
                        c.feed.prepare(int(PREFETCH_MARGIN * rate * seconds) + depth, hooks)
                    now = window_start = tally.window_start = time.perf_counter()
                    deadline = window_start + seconds
                    inline_before = _inline(conns)
                if deadline is None or now < deadline:
                    measured = window_start is not None
                    while conn.outstanding < depth:
                        conn.send(None, measured)
        tally.wall_s = time.perf_counter() - window_start
        tally.encoded_in_window = _inline(conns) - inline_before
    finally:
        sel.close()
        for conn in conns:
            conn.close()
    for conn in conns:
        conn.settle(tally)
    return tally


def open_loop(
    ports: list[int],
    feeds: list[Feed],
    rate: float,
    warmup_s: float,
    seconds: float,
    side: tuple[float, int, Op] | None = None,
    hooks: FrameHooks | None = None,
) -> tuple[Tally, float]:
    """Send ``rate`` requests/s in total, round-robin over one
    connection per stream, each timed from its due time whether or not
    earlier ones have been answered; ``side = (at_s, port, op)`` sends
    one extra op on its own connection ``at_s`` seconds into the
    window.  Every request the schedule holds is encoded before the
    clock starts.  Returns the tally and the side op's latency in
    seconds."""
    tally = Tally()
    conns = [Conn(port, feed, hooks) for port, feed in zip(ports, feeds)]
    sel = selectors.DefaultSelector()
    scheduled = math.ceil(rate * (warmup_s + seconds) / len(conns)) + 1
    for conn in conns:
        conn.feed.prepare(scheduled, hooks)
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    inline_before = _inline(conns)
    extra = None
    try:
        begin = time.perf_counter()
        window_start = tally.window_start = begin + warmup_s
        deadline = window_start + seconds
        side_due = window_start + side[0] if side else None
        interval = 1.0 / rate
        i = 0
        while True:
            now = time.perf_counter()
            due = begin + i * interval
            while due <= now and due < deadline:
                tally.late_ms.append((now - due) * 1e3)
                conns[i % len(conns)].send(due, due >= window_start)
                i += 1
                due = begin + i * interval
            if side_due is not None and now >= side_due:
                # Connected only now: an idle extra connection would
                # make every group commit wait for it as a straggler.
                extra = Conn(side[1], Feed(iter((side[2],))))
                sel.register(extra.sock, selectors.EVENT_READ, extra)
                extra.send(None, True)
                side_due = None
            if due >= deadline and side_due is None and not any(
                c.outstanding for c in conns + ([extra] if extra else [])
            ):
                break
            wait = max(0.0, min(due, side_due or due) - now)
            for key, _ in sel.select(timeout=wait if due < deadline else 60):
                key.data.receive()
        tally.wall_s = time.perf_counter() - window_start
        tally.encoded_in_window = _inline(conns) - inline_before
    finally:
        sel.close()
        for conn in conns + ([extra] if extra else []):
            conn.close()
    for conn in conns:
        conn.settle(tally)
    side_latency = 0.0
    if extra is not None:
        side_tally = Tally()
        extra.settle(side_tally)
        side_latency = side_tally.samples[0][1] / 1e3
        tally.attempted += side_tally.attempted
        tally.failed += side_tally.failed
        tally.failures += side_tally.failures
    return tally, side_latency
