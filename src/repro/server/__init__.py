"""The network service layer: serve one constraint-enforcing
:class:`~repro.engine.database.Database` to many concurrent clients.

The paper's Section 5 asks which merged-relation constraints a DBMS can
maintain *declaratively* on behalf of applications; this package makes
that question operational.  Clients submit mutations over a JSON-lines
TCP protocol (:mod:`repro.server.protocol`), and the server is the sole
enforcer of Definition 2.1 consistency: every rejection comes back as a
typed error frame carrying the violated constraint's ``kind`` and
paper-rule label, exactly as the in-process engine raises them.

Layering:

* :mod:`repro.server.protocol` -- the wire format (framing, verbs,
  row/NULL encoding, typed error frames), shared with the client and
  free of engine imports;
* :mod:`repro.server.errors` -- the one exception-to-error-frame
  mapping;
* :mod:`repro.server.service` -- sessions, verb dispatch, and the
  single-writer transaction manager with the group-commit WAL path;
* :mod:`repro.server.participant` -- the shard/2PC participant:
  ownership checks and held cross-shard prepares;
* :mod:`repro.server.replication` -- WAL shipping, the primary's half
  (verbs, semi-synchronous ack gate) and the replica's (loop, redo);
* :mod:`repro.server.server` -- the asyncio accept loop with connection
  limits, backpressure, graceful drain, and the sidecar HTTP endpoint
  serving ``/metrics``, ``/healthz`` and ``/readyz``;
* :mod:`repro.server.router` -- the hash-partitioning function and
  shard map of the multi-core fleet;
* :mod:`repro.server.supervisor` -- the parent process that binds the
  fleet's sockets, spawns one single-writer worker per core, respawns
  crashed workers through WAL recovery, and drains the fleet.

Replication (``docs/REPLICATION.md``): a server started with
``--replicate-from HOST:PORT`` runs as a read-only replica -- it
bootstraps from the primary's checkpoint image (``repl_snapshot``),
tails its committed WAL records (``repl_poll``), re-logs them into its
own WAL, and can be promoted to primary with the ``promote`` verb when
the primary dies.  A registered replica is synchronous: the primary
withholds mutation acks until the replica has confirmed receipt, so
acked durability survives the loss of the primary's disk.

Telemetry runs end to end: the service records per-verb request
counters and latencies, violation counters labeled by constraint kind
and paper rule, and queue/batch/WAL-sync instruments on a
:class:`~repro.obs.metrics.MetricsRegistry`, and every response echoes
the request's span trace id as ``trace_id``; with a span sink, that
trace holds the request's spans and engine decision events (see
``docs/OBSERVABILITY.md``).

The matching blocking client lives in :mod:`repro.client`; the CLI
entry point is ``python -m repro serve`` (see ``docs/SERVER.md``).
"""

from repro import lazy_exports

#: Each public name and the module that defines it, resolved on first
#: use (:func:`__getattr__`): the client imports
#: :mod:`repro.server.protocol` and :mod:`repro.server.router` through
#: this package without loading the server, or the engine behind it.
_EXPORTS = {
    "MAX_FRAME_BYTES": "repro.server.protocol",
    "ProtocolError": "repro.server.protocol",
    "RemoteConstraintViolation": "repro.server.protocol",
    "RemoteError": "repro.server.protocol",
    "ReproServer": "repro.server.server",
    "ServerConfig": "repro.server.server",
    "ServerMetrics": "repro.server.service",
    "ServerProcess": "repro.server.supervisor",
    "ServerThread": "repro.server.server",
    "ShardInfo": "repro.server.participant",
    "Supervisor": "repro.server.supervisor",
    "ShardMap": "repro.server.router",
    "DatabaseService": "repro.server.service",
    "drain_summary": "repro.server.server",
    "serve": "repro.server.server",
    "shard_of": "repro.server.router",
}

__all__ = list(_EXPORTS)


__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
