"""Shared test helper: interpret a WAL image with the scan oracle.

The crash-point matrix and the hypothesis property test both need an
*independent* notion of "the state the log proves committed": parse the
surviving bytes with :func:`repro.engine.wal.parse_wal` and apply the
committed records, in log order, to the scan-based
:class:`~repro.engine.oracle.OracleDatabase` -- buffering transaction
groups until their ``commit`` marker, dropping aborted/unterminated
groups and records cancelled by ``rollback`` markers.  A ``batch``
record (one whole ``insert_many``/``apply_batch``) is self-committing:
its runs of inserts, deletes and updates apply in order.  Both batch
shapes are read: version 2 runs list row objects and key lists;
version 3 insert runs are one value list per attribute, and version 3
delete runs list a single-attribute key as its bare value.  Nothing in
this interpreter shares code with :mod:`repro.engine.recovery` -- it
decodes every record kind itself -- so agreement between the two is
evidence, not tautology.

The oracle applies a committed group's records, and a batch's ops, in
order (it has no deferred reference checking), so test workloads keep
their batches order-safe: parents before children, children deleted
before parents.
"""

from repro.engine.oracle import OracleDatabase
from repro.engine.wal import parse_wal
from repro.io.state_json import decode_value, state_from_dict


def _image_state(state: dict) -> dict:
    """A log image's state with each column relation (log version 4:
    one value list per attribute) written out as the row list that
    ``state_from_dict`` reads; row lists (versions 1 to 3) stay."""
    relations = {}
    for name, rel in state.get("relations", {}).items():
        if isinstance(rel, dict):
            rel = [dict(zip(rel, values)) for values in zip(*rel.values())]
        relations[name] = rel
    return {"relations": relations}


def oracle_replay(
    data: bytes, schema, null_semantics: str = "distinct"
) -> OracleDatabase:
    """The oracle holding the committed prefix of the log image ``data``."""
    oracle = OracleDatabase(schema, null_semantics=null_semantics)
    in_txn = False
    buffered: list[dict] = []
    for record in parse_wal(data).records:
        op = record["op"]
        if op == "header":
            continue
        if op in ("snapshot", "load_state"):
            if "schema" in record:
                # A post-merge checkpoint embeds the evolved schema; the
                # image is an instance of it, not of the boot schema.
                from repro.io.relational_json import (
                    relational_schema_from_dict,
                )

                evolved = relational_schema_from_dict(record["schema"])
                oracle = OracleDatabase(
                    evolved, null_semantics=null_semantics
                )
                oracle.load_state(
                    state_from_dict(_image_state(record["state"]), evolved)
                )
            else:
                oracle.load_state(
                    state_from_dict(
                        _image_state(record["state"]), oracle.schema
                    )
                )
        elif op == "begin":
            in_txn, buffered = True, []
        elif op == "rollback":
            buffered = [
                r for r in buffered if r.get("lsn", 0) < record["to_lsn"]
            ]
        elif op == "abort":
            in_txn, buffered = False, []
        elif op == "commit":
            for r in buffered:
                oracle = _apply(oracle, r)
            in_txn, buffered = False, []
        elif in_txn:
            buffered.append(record)
        else:
            oracle = _apply(oracle, record)
    return oracle


def _apply(oracle: OracleDatabase, record: dict) -> OracleDatabase:
    if record["op"] == "merge":
        # A committed online merge: recompute the deterministic
        # Merge + Remove pipeline from the record's family spec and
        # continue on a fresh oracle holding the forward-mapped state.
        # Independent of repro.engine.recovery by construction -- only
        # the core transformation (which both sides must share, it
        # *defines* the merged schema) is reused.
        from repro.core.merge import merge
        from repro.core.remove import remove_all

        simplified = remove_all(
            merge(
                oracle.schema,
                record["members"],
                merged_name=record.get("merged_name"),
                key_relation=record.get("key_relation"),
            )
        )
        merged = OracleDatabase(
            simplified.schema, null_semantics=oracle.null_semantics
        )
        merged.load_state(simplified.forward.apply(oracle.state()))
        return merged
    if record["op"] == "batch":
        runs = record["runs"]
    elif record["op"] == "insert":
        runs = [("insert", record["scheme"], [record["row"]])]
    elif record["op"] == "delete":
        runs = [("delete", record["scheme"], [record["pk"]])]
    else:
        runs = [("update", record["scheme"], [(record["pk"], record["updates"])])]
    for kind, scheme, items in runs:
        if kind == "insert" and isinstance(items, dict):
            # Version 3: columns -> rows, column i of each attribute.
            names = list(items)
            length = len(items[names[0]])
            items = [{a: items[a][i] for a in names} for i in range(length)]
        for item in items:
            if kind == "insert":
                oracle.insert(scheme, _values(item))
            elif kind == "delete":
                oracle.delete(scheme, _key(item))
            else:
                pk, updates = item
                oracle.update(scheme, _key(pk), _values(updates))
    return oracle


def _values(encoded: dict) -> dict:
    return {k: decode_value(v) for k, v in encoded.items()}


def _key(encoded) -> tuple:
    if not isinstance(encoded, list):
        encoded = [encoded]  # a version 3 bare single-attribute key
    return tuple(decode_value(v) for v in encoded)
