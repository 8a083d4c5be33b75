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


def state_from_dict(
    data: Mapping[str, Any], schema: RelationalSchema
) -> DatabaseState:
    """Decode a database state against ``schema``.

    Schemes absent from the data get empty relations; unknown relation
    names are an error.
    """
    raw = data.get("relations", {})
    unknown = set(raw) - set(schema.scheme_names)
    if unknown:
        raise StateDecodeError(
            f"state mentions unknown schemes: {sorted(unknown)}"
        )
    relations = {}
    for scheme in schema.schemes:
        rows = raw.get(scheme.name, [])
        decoded = [
            {k: decode_value(v) for k, v in row.items()} for row in rows
        ]
        try:
            relations[scheme.name] = Relation.from_dicts(
                scheme.attributes, decoded
            )
        except ValueError as exc:
            raise StateDecodeError(f"{scheme.name}: {exc}") from exc
    return DatabaseState(relations)
