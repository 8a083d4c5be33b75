"""Hash-partitioned shard routing for the multi-core server fleet.

A sharded fleet (:mod:`repro.server.supervisor`) runs one single-writer
worker process per core; every relation is hash-partitioned across all
workers by primary key, so each worker owns a disjoint slice of every
table, with its own write-ahead log, group-commit pipeline and metrics
registry (the shared-nothing, partitioned-executor design of
H-Store/VoltDB-style systems).

The partitioning function must be computable on both ends of the wire
without sharing any process state, so it hashes the *wire form* of the
key -- its JSON rendering, ``NULL`` written as the ``{"$null": true}``
marker -- with CRC-32 over a canonical JSON rendering.  A key hashes
the same whether its values are still engine values or already parsed
off the wire.  (``hash()`` is per-process randomized for strings and
therefore useless across processes.)

:class:`ShardMap` is the client-side picture of a fleet, built from a
``topology`` response: how many workers there are, where they listen,
and each scheme's key attributes (needed to route an insert by the key
columns of its row).  The pure decision logic for cross-shard reference
requirements (:func:`requirement_violation`) lives here too, so the
client driver and the tests share one implementation.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.io.state_json import null_default

#: The canonical rendering keys are hashed over: compact, key-sorted.
_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=null_default
)


def shard_of(scheme: str, pk_wire: Sequence[Any], n_shards: int) -> int:
    """The worker index owning ``scheme``'s row with key ``pk_wire``.

    Deterministic across processes and runs: CRC-32 of the canonical
    (sorted-key, compact) JSON of ``[scheme, pk_wire]``.
    """
    if n_shards <= 1:
        return 0
    canonical = _canonical.encode([scheme, list(pk_wire)])
    return zlib.crc32(canonical.encode("utf-8")) % n_shards


class ShardMap:
    """A fleet's shard layout, as reported by the ``topology`` verb.

    Besides the partitioning inputs (worker count, key attributes per
    scheme), it carries each scheme's reference profile -- whether any
    inclusion dependency points *out of* or *into* it -- which is what
    lets a router send reference-free mutations down the plain
    group-commit path and reserve the two-phase prepare protocol for
    mutations whose checks may cross shards.
    """

    __slots__ = (
        "n_shards",
        "host",
        "ports",
        "shared_port",
        "key_names",
        "refs_out",
        "refs_in",
    )

    def __init__(
        self,
        n_shards: int,
        host: str,
        ports: Sequence[int],
        key_names: Mapping[str, Sequence[str]],
        shared_port: int | None = None,
        refs_out: Mapping[str, bool] | None = None,
        refs_in: Mapping[str, bool] | None = None,
    ):
        self.n_shards = max(1, int(n_shards))
        self.host = host
        self.ports = list(ports)
        self.shared_port = shared_port
        self.key_names = {k: tuple(v) for k, v in key_names.items()}
        # Unknown profiles default to True: assume checks may cross
        # shards unless told otherwise.
        self.refs_out = {
            k: bool((refs_out or {}).get(k, True)) for k in self.key_names
        }
        self.refs_in = {
            k: bool((refs_in or {}).get(k, True)) for k in self.key_names
        }

    @classmethod
    def from_topology(cls, topo: Mapping[str, Any]) -> "ShardMap":
        """Build a map from a server's ``topology`` verb response."""
        schemes = topo.get("schemes", {})
        key_names: dict[str, Sequence[str]] = {}
        refs_out: dict[str, bool] = {}
        refs_in: dict[str, bool] = {}
        for name, entry in schemes.items():
            if isinstance(entry, Mapping):
                key_names[name] = entry.get("key", ())
                refs_out[name] = bool(entry.get("refs_out", True))
                refs_in[name] = bool(entry.get("refs_in", True))
            else:  # bare key list (older/simpler producers)
                key_names[name] = entry
        return cls(
            n_shards=int(topo.get("workers", 1)),
            host=str(topo.get("host", "127.0.0.1")),
            ports=[int(p) for p in topo.get("ports", ())],
            key_names=key_names,
            shared_port=topo.get("shared_port"),
            refs_out=refs_out,
            refs_in=refs_in,
        )

    def shards(self) -> range:
        """Every shard index, in order."""
        return range(self.n_shards)

    def shard_of_pk(self, scheme: str, pk_wire: Sequence[Any]) -> int:
        """Owning shard of a wire-form primary key."""
        return shard_of(scheme, pk_wire, self.n_shards)

    def shard_of_row(self, scheme: str, row_wire: Mapping[str, Any]) -> int:
        """Owning shard of a wire-form row, by its key columns."""
        keys = self.key_names.get(scheme)
        if keys is None:
            raise KeyError(f"unknown scheme {scheme!r}")
        try:
            pk_wire = [row_wire[k] for k in keys]
        except KeyError as exc:
            raise KeyError(
                f"{scheme}: row is missing key attribute {exc.args[0]!r}"
            ) from exc
        return shard_of(scheme, pk_wire, self.n_shards)

    def shard_of_op(self, op: Sequence[Any]) -> int:
        """Owning shard of one wire-form ``apply_batch`` operation."""
        kind = op[0]
        if kind == "insert":
            return self.shard_of_row(op[1], op[2])
        if kind in ("delete", "update"):
            pk = op[2]
            if not isinstance(pk, (list, tuple)):
                pk = [pk]
            return self.shard_of_pk(op[1], pk)
        raise ValueError(f"unknown batch operation {kind!r}")


def requirement_violation(
    req: Mapping[str, Any],
    exists_any: Callable[[str, Sequence[str], Sequence[Any]], bool],
) -> str | None:
    """Decide one cross-shard requirement from a prepared batch.

    ``exists_any(scheme, attrs, value)`` must answer whether *any* shard
    (the preparing ones included -- their probes see held-prepare state)
    has a row of ``scheme`` carrying ``value`` under ``attrs``.  Returns
    ``None`` when the requirement is satisfied, else a human-readable
    violation message.

    * ``exists``: some row somewhere must carry the referenced value.
    * ``restrict``: the batch removed this shard's last provider of the
      value; fine if another shard still provides it, otherwise no
      referencing child row may remain anywhere.
    """
    kind = req["kind"]
    if kind == "exists":
        if exists_any(req["scheme"], req["attrs"], req["value"]):
            return None
        return (
            f"{req['scheme']} has no row with "
            f"{dict(zip(req['attrs'], req['value']))!r} "
            f"(required by {req['constraint']})"
        )
    if kind == "restrict":
        if exists_any(req["scheme"], req["attrs"], req["value"]):
            return None  # another provider of the value survives
        if exists_any(req["child_scheme"], req["child_attrs"], req["value"]):
            return (
                f"{req['scheme']} value "
                f"{dict(zip(req['attrs'], req['value']))!r} "
                f"still referenced by {req['child_scheme']} "
                f"({req['constraint']})"
            )
        return None
    raise ValueError(f"unknown requirement kind {kind!r}")


def group_ops_by_shard(
    shard_map: ShardMap, ops: Iterable[Sequence[Any]]
) -> dict[int, list[tuple[int, Sequence[Any]]]]:
    """Split wire-form batch ops by owning shard, keeping each op's
    position so the driver can reassemble results in request order."""
    groups: dict[int, list[tuple[int, Sequence[Any]]]] = {}
    for i, op in enumerate(ops):
        groups.setdefault(shard_map.shard_of_op(op), []).append((i, op))
    return groups
