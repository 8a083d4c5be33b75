"""The asyncio accept loop: connection limits, backpressure, drain.

:class:`ReproServer` owns one :class:`~repro.server.service.DatabaseService`
and speaks the JSON-lines protocol to any number of clients.  Each
connection is one coroutine reading frames off its socket; flow control
is end-to-end: a handler does not read the next request until the
previous response is written (``writer.drain()``), and mutations block
on the service's bounded queue, so a flood of writers slows clients
down instead of growing server memory.

Graceful drain (``SIGTERM`` under ``python -m repro serve``, or
:meth:`ReproServer.drain`) follows the sequence the paper's durability
story requires: stop accepting connections, let every in-flight request
finish and be acknowledged, flush the mutation queue through the final
group commit, checkpoint the write-ahead log, and close it.  Idle
connections are closed immediately; a connection mid-request gets its
response first.

:class:`ServerThread` hosts a server on a private event loop in a
background thread -- the harness the test suite uses, since the
repository's toolchain has no async test runner.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import socket
import threading
from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.engine.wal import WalError
from repro.server.participant import ShardInfo
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
)
from repro.obs.spans import Span, SpanSink
from repro.server.service import DatabaseService, Session

#: Spans the sink's ring buffer holds for the ``spans`` verb.
SPAN_CAPACITY = 2048


@dataclass
class ServerConfig:
    """Tunables for one server instance."""

    host: str = "127.0.0.1"
    #: Port to bind; 0 asks the OS for a free one (read the bound port
    #: back from :attr:`ReproServer.port`).
    port: int = 0
    #: Connections beyond this are answered with an ``overloaded``
    #: error frame and closed.
    max_connections: int = 64
    #: Most mutations one group commit may cover.
    max_batch: int = 64
    #: Longest the writer waits (seconds) for stragglers to join a
    #: group after its first mutation arrives.  It waits only for
    #: sessions that are writing (one the previous group committed for,
    #: or a mutation mid-submission), never for idle or read-only
    #: connections.  0 = commit whatever is already queued, never wait.
    max_delay: float = 0.002
    #: Compact the WAL into a snapshot as part of graceful drain.
    checkpoint_on_drain: bool = True
    #: Port for the sidecar HTTP endpoint serving ``/metrics``,
    #: ``/healthz`` and ``/readyz``; 0 asks the OS for a free one
    #: (read it back from :attr:`ReproServer.metrics_port`), ``None``
    #: disables the listener.
    metrics_port: int | None = None
    #: Already-bound listening sockets to serve on instead of binding
    #: ``host:port`` -- how a supervisor worker serves its own direct
    #: port plus the fleet's shared port from parent-bound, fd-passed
    #: sockets (:mod:`repro.server.supervisor`).  The first socket's
    #: port is reported as :attr:`ReproServer.port`.
    sockets: list[socket.socket] = field(default_factory=list)
    #: This worker's place in a sharded fleet; ``None`` on a plain
    #: single-process server.
    shard: ShardInfo | None = None
    #: How long the writer holds a cross-shard prepare before aborting
    #: it unilaterally.
    prepare_timeout: float = 30.0
    #: ``host:port`` of a primary to replicate from.  Set, the server
    #: starts as a read-only replica: it snapshots the primary, tails
    #: its WAL over the normal protocol, and serves consistent reads
    #: until the ``promote`` verb turns it into a primary.  See
    #: ``docs/REPLICATION.md``.
    replicate_from: str | None = None
    #: JSONL file finished spans are exported to (``repro trace`` reads
    #: these); ``None`` disables span tracing entirely.  See
    #: :mod:`repro.obs.spans` and docs/OBSERVABILITY.md.
    span_sink: str | None = None
    #: Head-sampling rate in [0, 1] for traces *rooted* at this
    #: process; requests arriving with a span context follow the
    #: context's sampled flag instead.
    span_sample: float = 1.0
    #: Dump an ASCII waterfall to stderr for any request whose server
    #: span runs at least this many milliseconds (requires
    #: ``span_sink``; ``None`` disables the slow-request log).
    slow_ms: float | None = None


class ReproServer:
    """One database served to many JSON-lines TCP clients."""

    def __init__(self, db: Database, config: ServerConfig | None = None):
        self.db = db
        self.config = config or ServerConfig()
        #: This process's span sink (``None`` unless configured); owned
        #: here -- closed at the end of drain, after the final spans.
        self.span_sink: SpanSink | None = None
        if self.config.span_sink is not None:
            # The process label stamped on exported spans.
            if self.config.shard is not None:
                process = f"w{self.config.shard.worker_id}"
                if self.config.replicate_from:
                    process += "-replica"
            elif self.config.replicate_from:
                process = "replica"
            else:
                process = "server"
            self.span_sink = SpanSink(
                path=self.config.span_sink,
                capacity=SPAN_CAPACITY,
                sample=self.config.span_sample,
                process=process,
            )
        self.service = DatabaseService(
            db,
            max_batch=self.config.max_batch,
            max_delay=self.config.max_delay,
            shard=self.config.shard,
            prepare_timeout=self.config.prepare_timeout,
            role="replica" if self.config.replicate_from else "primary",
            primary=self.config.replicate_from,
            span_sink=self.span_sink,
            slow_ms=self.config.slow_ms,
        )
        self.host = self.config.host
        self.port: int | None = None
        #: Bound port of the sidecar metrics endpoint (``None`` until
        #: started, or when :attr:`ServerConfig.metrics_port` is unset).
        self.metrics_port: int | None = None
        #: Sessions accepted so far (a session's id is this count at
        #: its acceptance).
        self.sessions_opened = 0
        #: True once startup (including WAL recovery, done before
        #: construction) is complete and the listener is bound -- the
        #: ``/readyz`` signal.
        self._ready = False
        self._metrics_server: asyncio.base_events.Server | None = None
        #: Error (if any) raised while checkpointing/closing the WAL
        #: during drain; drain itself never raises.
        self.drain_error: Exception | None = None
        self._servers: list[asyncio.base_events.Server] = []
        self._connections: set[asyncio.Task] = set()
        #: Session tasks waiting for their next request line.
        self._idle: set[asyncio.Task] = set()
        self._draining = asyncio.Event()
        self._drained = asyncio.Event()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listeners and start the writer task."""
        await self.service.start()
        if self.config.sockets:
            # Parent-bound, fd-passed listeners (the supervisor's
            # workers): one direct socket for routed traffic, plus the
            # fleet-shared socket every worker accepts from.
            self._servers = [
                await asyncio.start_server(
                    self._on_client, sock=s, limit=MAX_FRAME_BYTES
                )
                for s in self.config.sockets
            ]
        else:
            self._servers = [
                await asyncio.start_server(
                    self._on_client,
                    self.host,
                    self.config.port,
                    limit=MAX_FRAME_BYTES,
                )
            ]
        self.port = self._servers[0].sockets[0].getsockname()[1]
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._on_metrics_client,
                self.host,
                self.config.metrics_port,
            )
            self.metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1]
            )
        self.service.replication.start()
        self._ready = True

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight requests,
        run the final group commit, checkpoint, close the WAL.

        Idempotent; concurrent callers all wait for the one drain.
        """
        if self._draining.is_set():
            await self._drained.wait()
            return
        self._draining.set()
        # A session whose request line has already arrived has its
        # wakeup queued but may not have run it yet; yield once so
        # every such session (queued before this drain's resumption,
        # call_soon is FIFO) leaves ``_idle`` and gets answered.
        await asyncio.sleep(0)
        # An idle session holds no request: end its wait now.  A
        # session handling one sends its reply, then sees the flag.
        for task in list(self._idle):
            task.cancel()
        # Release parked replica polls and deferred semi-sync acks so
        # the connection gather below cannot wait out their timeouts,
        # and stop tailing a primary.
        await self.service.replication.drain()
        for server in self._servers:
            server.close()
            await server.wait_closed()
        if self._connections:
            await asyncio.gather(
                *list(self._connections), return_exceptions=True
            )
        await self.service.stop()
        try:
            if self.db.wal is not None:
                if (
                    self.config.checkpoint_on_drain
                    and self.service.poisoned is None
                ):
                    self.db.checkpoint()
                self.db.wal.close()
        except (WalError, OSError) as exc:
            self.drain_error = exc
        # The metrics listener outlives the client listener so a final
        # scrape (and /readyz flipping to 503) is observable during the
        # drain itself; it closes only once the WAL is safe.
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        if self.span_sink is not None:
            self.span_sink.close()
        self._drained.set()

    async def wait_drained(self) -> None:
        """Block until a drain (triggered elsewhere) completes."""
        await self._drained.wait()

    # -- per-connection handler ------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        if (
            len(self._connections) >= self.config.max_connections
            or self._draining.is_set()
        ):
            self.service.metrics.rejected_connections.inc()
            kind = (
                "shutting-down" if self._draining.is_set() else "overloaded"
            )
            with contextlib.suppress(ConnectionError, OSError):
                writer.write(
                    encode_frame(
                        error_frame(None, kind, "connection refused")
                    )
                )
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            return
        self._connections.add(task)
        self.service.connections += 1
        self.sessions_opened += 1
        self.service.metrics.sessions.inc()
        peername = writer.get_extra_info("peername")
        session = Session(
            id=self.sessions_opened,
            peer=f"{peername[0]}:{peername[1]}" if peername else "",
        )
        try:
            await self._serve_session(session, reader, writer)
        finally:
            self._connections.discard(task)
            self.service.connections -= 1
            # A vanished session is no straggler, and a vanished
            # replica must stop gating mutation acks.
            self.service.forget_session(session)
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _serve_session(
        self,
        session: Session,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            line = await self._read_request(reader)
            if line is None:  # drain fired while the connection was idle
                return
            if isinstance(line, dict):  # oversized/broken framing
                writer.write(encode_frame(line))
                await writer.drain()
                return
            if not line:  # EOF: client hung up
                return
            try:
                frame = decode_frame(line)
            except ProtocolError as exc:
                # Framing never resyncs mid-stream; answer and close.
                writer.write(
                    encode_frame(error_frame(None, "bad-request", str(exc)))
                )
                await writer.drain()
                return
            response = await self.service.handle(session, frame)
            writer.write(encode_frame(response))
            await writer.drain()
            if self._draining.is_set():
                return

    # -- the sidecar metrics endpoint --------------------------------------

    async def _on_metrics_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One scrape: a minimal HTTP/1.0-style exchange (GET/HEAD,
        ``Connection: close``) -- enough for Prometheus, curl, and
        orchestrator probes without an HTTP dependency.  A request line
        or header longer than the stream's limit gets ``431``."""
        try:
            too_long = False
            try:
                request_line = await reader.readline()
            except ValueError:  # longer than the stream's limit
                request_line, too_long = b"", True
            while True:  # drain request headers up to the blank line
                try:
                    header = await reader.readline()
                except ValueError:  # dropped; the rest is still read
                    too_long = True
                    continue
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            path = parts[1].split("?", 1)[0] if len(parts) > 1 else ""
            if too_long:
                status, body, ctype = (
                    "431 Request Header Fields Too Large",
                    "request header fields too large\n",
                    "text/plain; charset=utf-8",
                )
            else:
                status, body, ctype = self._http_response(method, path)
            head = method == "HEAD"
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("latin-1")
            )
            if not head:
                writer.write(payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # a broken scrape must never disturb the server
        finally:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    def _http_response(self, method: str, path: str) -> tuple[str, str, str]:
        """``(status line, body, content type)`` for one probe path."""
        text = "text/plain; charset=utf-8"
        if method not in ("GET", "HEAD"):
            return "405 Method Not Allowed", "method not allowed\n", text
        if path == "/metrics":
            return (
                "200 OK",
                self.service.render_metrics(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/healthz":
            # Liveness: the event loop is serving this very request.
            return "200 OK", "ok\n", text
        if path == "/readyz":
            if self._draining.is_set():
                return "503 Service Unavailable", "draining\n", text
            if not self._ready:
                return "503 Service Unavailable", "starting\n", text
            return "200 OK", "ready\n", text
        return "404 Not Found", "not found\n", text

    async def _read_request(self, reader: asyncio.StreamReader):
        """The next request line, ``None`` once a drain ends the idle
        wait, or an error frame (dict) when framing breaks.

        A plain ``readline``: while a session waits here it sits in
        ``_idle``, where :meth:`drain` cancels it.  A session leaves the
        set before its request is handled, so a drain never cancels a
        request in flight."""
        task = asyncio.current_task()
        self._idle.add(task)
        try:
            return await reader.readline()
        except asyncio.CancelledError:
            if not self._draining.is_set():
                raise
            return None
        except ValueError:
            # StreamReader's limit tripped: the line exceeds the frame cap.
            return error_frame(
                None,
                "bad-request",
                f"frame exceeds the {MAX_FRAME_BYTES}-byte limit",
            )
        except (ConnectionError, OSError):
            return b""
        finally:
            self._idle.discard(task)


def drain_summary(server: ReproServer) -> dict:
    """The final telemetry snapshot of a drained server, JSON-ready.

    ``python -m repro serve`` prints this to stderr after a graceful
    drain so scripts can assert on exact counts instead of parsing the
    human-readable ``drained:`` line.
    """
    stats = server.db.stats
    return {
        "event": "drained",
        "sessions": server.sessions_opened,
        "rejected_connections": int(
            server.service.metrics.rejected_connections.value()
        ),
        "requests": server.service.requests_served,
        "group_commits": stats.wal_group_commits,
        "batched_records": stats.wal_batched_records,
        "checkpoints": stats.checkpoints,
        "poisoned": server.service.poisoned,
        "engine": stats.snapshot(),
        "server": server.service.server_stats(),
    }


async def serve(
    db: Database,
    config: ServerConfig | None = None,
    *,
    install_signal_handlers: bool = True,
    recover_span: Span | None = None,
) -> ReproServer:
    """Run a server until drained (the ``python -m repro serve`` body).

    Prints ``listening on <host>:<port>`` once the socket is bound --
    the readiness line scripts and tests wait for -- then ``metrics on
    <host>:<port>`` when the sidecar HTTP endpoint is enabled, and
    installs ``SIGTERM``/``SIGINT`` handlers that trigger a graceful
    drain.  ``recover_span`` (the span startup recovery ran under) is
    exported to the span sink when the sink samples it.
    """
    server = ReproServer(db, config)
    sink = server.span_sink
    if recover_span is not None and sink is not None and sink.sample_root():
        recover_span.process = sink.process
        sink.export(recover_span)
    await server.start()
    # Handlers must be live before the readiness line: the supervisor
    # (and scripts) treat that line as "safe to SIGTERM", and a worker
    # descheduled between the print and the installation would die with
    # the default disposition instead of draining.
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(
                    sig,
                    lambda: asyncio.ensure_future(server.drain()),
                )
    print(f"listening on {server.host}:{server.port}", flush=True)
    if server.metrics_port is not None:
        print(f"metrics on {server.host}:{server.metrics_port}", flush=True)
    if server.span_sink is not None:
        print(
            f"spans to {server.config.span_sink} "
            f"(sample {server.span_sink.sample:g})",
            flush=True,
        )
    if server.config.replicate_from:
        print(
            f"replicating from {server.config.replicate_from}", flush=True
        )
    await server.wait_drained()
    return server


class ServerThread:
    """Host a :class:`ReproServer` on a private event loop in a
    background thread.

    For tests and benchmarks: the caller keeps the blocking side of the
    conversation (e.g. :class:`repro.client.Client`) while the server
    runs here.  ``stop()`` performs a full graceful drain.  After
    ``stop()`` returns, the database may be inspected from the calling
    thread -- the server thread has exited, so there is no sharing.
    """

    def __init__(self, db: Database, config: ServerConfig | None = None):
        self.db = db
        self.config = config or ServerConfig()
        self.server: ReproServer | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.metrics_port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: Exception | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "ServerThread":
        """Start the thread and block until the listener is bound
        (re-raising any startup failure here, in the caller)."""
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Drain the server and join the thread."""
        loop, server = self._loop, self.server
        if loop is not None and server is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(server.drain())
            )
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("server thread failed to drain in time")

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # surface startup failures to start()
            if self._startup_error is None:
                self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = ReproServer(self.db, self.config)
        try:
            await self.server.start()
        except Exception as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.host, self.port = self.server.host, self.server.port
        self.metrics_port = self.server.metrics_port
        self._ready.set()
        await self.server.wait_drained()
