"""The fleet supervisor: one single-writer worker process per core.

``python -m repro serve SCHEMA --workers N`` runs this parent process.
It binds every listening socket up front -- one *direct* socket per
worker (ephemeral port, carrying that worker's routed traffic) plus one
*shared* socket on the public port, which every worker accepts from
(the kernel load-balances a shared listening fd across the accepting
processes; ``SO_REUSEPORT`` is additionally set where available so a
future per-worker-bound deployment needs no code change).  The bound
sockets are passed to each worker by file descriptor
(``subprocess`` ``pass_fds``), so the parent never proxies a byte: it
is a pure supervisor, and the workers are ordinary ``repro serve``
processes in worker mode.

Each worker owns a hash-partitioned shard of every relation
(:mod:`repro.server.router`) with its own write-ahead log
(``<wal>.w<i>``), group-commit pipeline, and metrics registry --
shared-nothing, so worker throughput adds up instead of serializing on
one writer.

Supervision: a worker that dies unexpectedly is respawned with the same
fds and WAL path; ``repro serve``'s own startup recovery replays the
shard's log, so a SIGKILL mid-batch loses only unacknowledged
mutations (the group-commit contract, now per shard).  ``SIGTERM`` /
``SIGINT`` on the parent drains the fleet: every worker gets SIGTERM
and performs its usual graceful drain (final group commit, checkpoint,
close).

Stdout protocol (what :class:`FleetProcess` and scripts parse): each
worker line is forwarded prefixed ``[w<i>]``; the parent prints
``worker <i> pid <pid> port <port>`` when a worker becomes ready
(suffixed ``(respawned)`` after a crash), then ``fleet listening on
<host>:<port> workers=<n>`` once all are up, and ``fleet drained``
after shutdown.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
from typing import Any, IO


_say_lock = threading.Lock()


def _say(line: str) -> None:
    """Write one whole stdout line.  The main thread and every worker's
    pump thread print; ``print`` writes a line and its newline in two
    calls, so two threads' lines could splice into one (a worker line
    swallowing ``fleet listening on``, which then never starts a line
    for a reader to find)."""
    with _say_lock:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


def bind_socket(host: str, port: int, reuse_port: bool = True) -> socket.socket:
    """A bound (not yet listening) TCP socket the workers will accept
    from."""
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuse_port and hasattr(socket, "SO_REUSEPORT"):
        try:
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        except OSError:
            pass
    s.bind((host, port))
    return s


class Supervisor:
    """Spawn, watch, respawn, and drain a fleet of worker processes.

    ``worker_args`` is the tail of each worker's command line (schema
    path and forwarded ``serve`` options); the supervisor appends the
    worker-mode flags (index, ports, fds, per-worker WAL path).
    """

    def __init__(
        self,
        workers: int,
        host: str,
        port: int,
        worker_args: list[str],
        wal: str | None = None,
        ready_timeout: float = 60.0,
        replicate_from: list[str] | None = None,
        span_sink: str | None = None,
    ):
        if workers < 1:
            raise ValueError("a fleet needs at least one worker")
        if replicate_from is not None and len(replicate_from) != workers:
            raise ValueError(
                f"need one primary address per worker: got "
                f"{len(replicate_from)} for {workers} workers"
            )
        self.n_workers = workers
        self.host = host
        self.wal = wal
        #: Span-sink base path; each worker writes ``<path>.w<i>``
        #: (same per-worker derivation as the WAL), which is what
        #: ``repro trace`` globs up to reassemble fleet-wide traces.
        self.span_sink = span_sink
        self.worker_args = list(worker_args)
        #: Per-worker primary addresses (``host:port`` of the matching
        #: shard on the primary fleet); set, every worker runs as a
        #: replica of its counterpart and the whole fleet is promotable
        #: shard by shard.
        self.replicate_from = replicate_from
        self.ready_timeout = ready_timeout
        self.shared_socket = bind_socket(host, port)
        self.port: int = self.shared_socket.getsockname()[1]
        self.direct_sockets = [bind_socket(host, 0) for _ in range(workers)]
        self.ports: list[int] = [
            s.getsockname()[1] for s in self.direct_sockets
        ]
        self.procs: list[subprocess.Popen | None] = [None] * workers
        self.respawns = 0
        self._ready = [threading.Event() for _ in range(workers)]
        self._draining = threading.Event()
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._exit_codes: list[int] = []

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker and block until the whole fleet is ready.

        The SIGTERM/SIGINT drain handlers go in before the readiness
        line: a caller may stop the fleet the moment it reads it, and
        the default action would kill the supervisor and orphan every
        worker."""
        for i in range(self.n_workers):
            self._spawn(i)
        for i, event in enumerate(self._ready):
            if not event.wait(self.ready_timeout):
                raise RuntimeError(f"worker {i} failed to become ready")
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, self._on_signal)
        _say(
            f"fleet listening on {self.host}:{self.port} "
            f"workers={self.n_workers}"
        )

    def run_forever(self) -> int:
        """Supervise until drained (:meth:`start` installed the signal
        handlers that drain)."""
        self._done.wait()
        # Drained: a late stop signal must not kill the exiting process
        # (interpreter teardown would restore the default action).
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, signal.SIG_IGN)
        _say("fleet drained")
        return 1 if any(self._exit_codes) else 0

    def _on_signal(self, *_: Any) -> None:
        """SIGTERM/SIGINT: start the drain, unless one is under way.

        Handlers run on the main thread, so a second signal arriving
        mid-drain interrupts that very drain: waiting for it to finish
        there (as :meth:`drain` does when called twice) would block
        forever."""
        if not self._draining.is_set():
            self.drain()

    def drain(self) -> None:
        """SIGTERM every worker and reap the fleet (idempotent)."""
        if self._draining.is_set():
            self._done.wait()
            return
        self._draining.set()
        with self._lock:
            procs = [p for p in self.procs if p is not None]
        for proc in procs:
            if proc.poll() is None:
                with _suppress_process_errors():
                    proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
            self._exit_codes.append(code)
            if code:
                index = next(
                    (i for i, p in enumerate(self.procs) if p is proc), "?"
                )
                _say(
                    f"worker {index} pid {proc.pid} drained "
                    f"with code {code}"
                )
        for s in self.direct_sockets:
            s.close()
        self.shared_socket.close()
        self._done.set()

    # -- workers ---------------------------------------------------------

    def _worker_command(self, index: int) -> list[str]:
        cmd = [sys.executable, "-m", "repro", "serve"]
        cmd += self.worker_args
        cmd += [
            "--host",
            self.host,
            "--workers",
            str(self.n_workers),
            "--worker-index",
            str(index),
            "--worker-ports",
            ",".join(str(p) for p in self.ports),
            "--shared-port",
            str(self.port),
            "--listen-fd",
            str(self.direct_sockets[index].fileno()),
            "--shared-fd",
            str(self.shared_socket.fileno()),
        ]
        if self.wal is not None:
            cmd += ["--wal", f"{self.wal}.w{index}"]
        if self.span_sink is not None:
            cmd += ["--span-sink", f"{self.span_sink}.w{index}"]
        if self.replicate_from is not None:
            cmd += ["--replicate-from", self.replicate_from[index]]
        return cmd

    def _spawn(self, index: int, respawned: bool = False) -> None:
        proc = subprocess.Popen(
            self._worker_command(index),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            pass_fds=(
                self.direct_sockets[index].fileno(),
                self.shared_socket.fileno(),
            ),
        )
        with self._lock:
            self.procs[index] = proc
        threading.Thread(
            target=self._pump,
            args=(index, proc, respawned),
            name=f"repro-worker-{index}",
            daemon=True,
        ).start()

    def _pump(
        self, index: int, proc: subprocess.Popen, respawned: bool
    ) -> None:
        """Forward one worker's output, mark readiness, respawn on
        unexpected death."""
        stdout: IO[str] = proc.stdout  # type: ignore[assignment]
        for line in stdout:
            line = line.rstrip("\n")
            _say(f"[w{index}] {line}")
            if line.startswith("listening on "):
                suffix = " (respawned)" if respawned else ""
                _say(
                    f"worker {index} pid {proc.pid} "
                    f"port {self.ports[index]}{suffix}"
                )
                self._ready[index].set()
        proc.wait()
        if self._draining.is_set():
            return
        _say(
            f"worker {index} pid {proc.pid} exited "
            f"with code {proc.returncode}; respawning"
        )
        with self._lock:
            self.respawns += 1
        self._ready[index].clear()
        self._spawn(index, respawned=True)


class _suppress_process_errors:
    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, *_: Any) -> bool:
        return exc_type is not None and issubclass(
            exc_type, (ProcessLookupError, OSError)
        )


class FleetProcess:
    """A ``repro serve --workers N`` fleet run as a child process -- the
    harness the fleet tests and ``perfbench/`` drive.

    Parses the supervisor's stdout protocol: :attr:`port` (the shared
    public port), :attr:`worker_ports` and :attr:`worker_pids` by worker
    index, updated on respawn.  ``stop()`` sends SIGTERM and waits for
    the graceful fleet drain.
    """

    def __init__(
        self,
        schema: str,
        workers: int,
        wal: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        extra_args: tuple[str, ...] = (),
        timeout: float = 120.0,
    ):
        self.timeout = timeout
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            schema,
            "--host",
            host,
            "--port",
            str(port),
            "--workers",
            str(workers),
        ]
        if wal is not None:
            cmd += ["--wal", wal]
        cmd += list(extra_args)
        env = dict(os.environ)
        env.setdefault("PYTHONUNBUFFERED", "1")
        # The child must import ``repro`` however the caller did (e.g. a
        # benchmark harness that put ``src`` on sys.path itself).
        pkg_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        paths = env.get("PYTHONPATH", "")
        if pkg_root not in paths.split(os.pathsep):
            env["PYTHONPATH"] = (
                pkg_root + os.pathsep + paths if paths else pkg_root
            )
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.host = host
        self.port: int | None = None
        self.worker_ports: dict[int, int] = {}
        self.worker_pids: dict[int, int] = {}
        self.respawned: set[int] = set()
        self.lines: list[str] = []
        self._ready = threading.Event()
        self._drained = threading.Event()
        self._reader = threading.Thread(
            target=self._read, name="repro-fleet-reader", daemon=True
        )
        self._reader.start()

    def __enter__(self) -> "FleetProcess":
        return self.wait_ready()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _read(self) -> None:
        stdout: IO[str] = self.proc.stdout  # type: ignore[assignment]
        for raw in stdout:
            line = raw.rstrip("\n")
            self.lines.append(line)
            parts = line.split()
            if (
                line.startswith("worker ")
                and "pid" in parts
                and "port" in parts
            ):
                index = int(parts[1])
                self.worker_pids[index] = int(parts[parts.index("pid") + 1])
                self.worker_ports[index] = int(
                    parts[parts.index("port") + 1]
                )
                if line.endswith("(respawned)"):
                    self.respawned.add(index)
            elif line.startswith("fleet listening on "):
                self.port = int(parts[3].rpartition(":")[2])
                self._ready.set()
            elif line == "fleet drained":
                self._drained.set()
        self._ready.set()  # EOF: unblock waiters even on startup failure

    def wait_ready(self) -> "FleetProcess":
        """Block until the fleet announces readiness; self, for chaining."""
        if not self._ready.wait(self.timeout) or self.port is None:
            self.stop()
            raise RuntimeError(
                "fleet failed to start:\n" + "\n".join(self.lines[-20:])
            )
        return self

    def wait_worker(self, index: int, timeout: float = 60.0) -> int:
        """Block until worker ``index`` is (re)announced; its pid."""
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pid = self.worker_pids.get(index)
            if pid is not None and _pid_alive(pid):
                return pid
            time.sleep(0.05)
        raise RuntimeError(f"worker {index} did not come up")

    def kill_worker(self, index: int) -> int:
        """SIGKILL one worker (crash injection); returns the old pid."""
        pid = self.worker_pids[index]
        del self.worker_pids[index]
        os.kill(pid, signal.SIGKILL)
        return pid

    def stop(self) -> int:
        """Graceful fleet drain; the supervisor's exit code."""
        if self.proc.poll() is None:
            with _suppress_process_errors():
                self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=10)
        return code


class ServerProcess:
    """A plain (one-worker) ``repro serve`` run as a child process.

    The single-server sibling of :class:`FleetProcess`, used by the
    replication tests and ``perfbench/``: it parses the ``listening
    on`` readiness line, exposes the stdout transcript for assertions
    (``replica caught up ...``, ``promoted to primary``), and supports
    both graceful drain (:meth:`stop`) and crash injection
    (:meth:`kill`).
    """

    def __init__(
        self,
        schema: str,
        wal: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        replicate_from: str | None = None,
        extra_args: tuple[str, ...] = (),
        timeout: float = 60.0,
    ):
        self.timeout = timeout
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            schema,
            "--host",
            host,
            "--port",
            str(port),
        ]
        if wal is not None:
            cmd += ["--wal", wal]
        if replicate_from is not None:
            cmd += ["--replicate-from", replicate_from]
        cmd += list(extra_args)
        env = dict(os.environ)
        env.setdefault("PYTHONUNBUFFERED", "1")
        pkg_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        paths = env.get("PYTHONPATH", "")
        if pkg_root not in paths.split(os.pathsep):
            env["PYTHONPATH"] = (
                pkg_root + os.pathsep + paths if paths else pkg_root
            )
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            # Replica-status lines (``replica caught up ...``) print to
            # stderr; merge them into the transcript so wait_line()
            # sees both streams.
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.host = host
        self.port: int | None = None
        self.lines: list[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(
            target=self._read, name="repro-server-reader", daemon=True
        )
        self._reader.start()

    def __enter__(self) -> "ServerProcess":
        return self.wait_ready()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _read(self) -> None:
        stdout: IO[str] = self.proc.stdout  # type: ignore[assignment]
        for raw in stdout:
            line = raw.rstrip("\n")
            self.lines.append(line)
            if line.startswith("listening on "):
                self.port = int(line.rpartition(":")[2])
                self._ready.set()
        self._ready.set()  # EOF: unblock waiters even on startup failure

    def wait_ready(self) -> "ServerProcess":
        """Block until the readiness line; self, for chaining."""
        if not self._ready.wait(self.timeout) or self.port is None:
            self.stop()
            raise RuntimeError(
                "server failed to start:\n" + "\n".join(self.lines[-20:])
            )
        return self

    def wait_line(self, prefix: str, timeout: float = 30.0) -> str:
        """Block until a stdout line starting with ``prefix`` appears
        (e.g. ``replica caught up``); returns the line."""
        import time

        deadline = time.monotonic() + timeout
        seen = 0
        while time.monotonic() < deadline:
            lines = self.lines
            for line in lines[seen:]:
                if line.startswith(prefix):
                    return line
            seen = len(lines)
            time.sleep(0.02)
        raise RuntimeError(
            f"no line starting with {prefix!r} within {timeout}s:\n"
            + "\n".join(self.lines[-20:])
        )

    def kill(self) -> int:
        """SIGKILL the server (crash injection); returns its pid."""
        pid = self.proc.pid
        with _suppress_process_errors():
            self.proc.kill()
        self.proc.wait()
        return pid

    def stop(self) -> int:
        """Graceful drain via SIGTERM; the server's exit code."""
        if self.proc.poll() is None:
            with _suppress_process_errors():
                self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=10)
        return code


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
