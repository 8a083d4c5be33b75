"""JSON form of database states.

Rows are attribute-name/value objects; the ``NULL`` marker is encoded as
the object ``{"$null": true}`` so it survives round trips without
colliding with legitimate string values::

    {
      "relations": {
        "COURSE": [{"C.NR": "crs-0001"}],
        "OFFER": [{"O.C.NR": "crs-0001", "O.D.NAME": {"$null": true}}]
      }
    }
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Mapping

from repro.relational.relation import Relation
from repro.relational.schema import RelationalSchema
from repro.relational.state import DatabaseState
from repro.relational.tuples import NULL, is_null

NULL_MARKER = {"$null": True}


class StateDecodeError(ValueError):
    """Raised when a state dictionary does not fit its schema."""


def encode_value(value: Any) -> Any:
    """One attribute value in JSON form (``NULL`` becomes the marker
    object).  Shared by state files and the write-ahead log
    (:mod:`repro.engine.wal`), so both formats agree on how a null
    survives a round trip."""
    return dict(NULL_MARKER) if is_null(value) else value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`.  Parsed JSON holds no mapping
    but ``dict``, so the exact check is the cheap ``dict`` one."""
    if isinstance(value, dict) and value.get("$null") is True:
        return NULL
    return value


def decode_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """One row with every marker decoded (a new dict)."""
    return {k: decode_value(v) for k, v in row.items()}


def decode_rows(rows: list) -> list:
    """Rows (``None`` entries allowed) with every marker decoded.

    One C-level pass collects the types of all values; only a JSON
    object can be a marker, so when none is present ``rows`` itself is
    returned, uncopied.  Otherwise every row goes through
    :func:`decode_row`.  Shared by the server's wire frames and by
    snapshot images (:func:`decode_relations`).
    """
    values = chain.from_iterable(map(dict.values, filter(None, rows)))
    if dict not in set(map(type, values)):
        return rows
    return [decode_row(r) if r is not None else None for r in rows]


def null_default(value: Any) -> Any:
    """The ``default`` hook of a :class:`json.JSONEncoder` that writes
    ``NULL`` anywhere in a payload as the marker object, so payloads
    can hold values as the engine stores them (the write-ahead log and
    the server's wire frames both encode this way)."""
    if value is NULL:
        return dict(NULL_MARKER)
    raise TypeError(
        f"object of type {type(value).__name__} is not JSON serializable"
    )


def state_to_dict(state: DatabaseState) -> dict[str, Any]:
    """Encode a database state as a JSON-compatible dictionary."""
    relations: dict[str, list[dict[str, Any]]] = {}
    for name, relation in sorted(state.items()):
        rows = []
        for t in relation:
            rows.append({k: encode_value(v) for k, v in t.items()})
        rows.sort(key=lambda r: sorted((k, repr(v)) for k, v in r.items()))
        relations[name] = rows
    return {"relations": relations}


def decode_relations(
    data: Mapping[str, Any], schema: RelationalSchema
) -> dict[str, list[dict[str, Any]]]:
    """The rows of a state's JSON form, per scheme of ``schema``, with
    markers decoded by :func:`decode_rows` (marker-free relations keep
    their parsed rows, uncopied).

    Schemes absent from the data get no rows; unknown relation names
    and rows that are not JSON objects are an error.  Rows are not
    checked against their scheme's attributes here --
    :func:`state_from_dict` and the engine's bulk install do that.
    """
    raw = data.get("relations", {})
    unknown = set(raw) - set(schema.scheme_names)
    if unknown:
        raise StateDecodeError(
            f"state mentions unknown schemes: {sorted(unknown)}"
        )
    decoded = {}
    for scheme in schema.schemes:
        rows = raw.get(scheme.name, [])
        if set(map(type, rows)) - {dict}:
            row = next(r for r in rows if type(r) is not dict)
            raise StateDecodeError(
                f"{scheme.name}: row {row!r} is not an "
                "attribute-name/value object"
            )
        decoded[scheme.name] = decode_rows(rows)
    return decoded


def state_from_dict(
    data: Mapping[str, Any], schema: RelationalSchema
) -> DatabaseState:
    """Decode a database state against ``schema``.

    Schemes absent from the data get empty relations; unknown relation
    names are an error.
    """
    decoded = decode_relations(data, schema)
    relations = {}
    for scheme in schema.schemes:
        rows = decoded[scheme.name]
        try:
            relations[scheme.name] = Relation.from_dicts(
                scheme.attributes, rows
            )
        except ValueError as exc:
            raise StateDecodeError(f"{scheme.name}: {exc}") from exc
    return DatabaseState(relations)
