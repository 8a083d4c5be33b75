"""The wire format: framing, value encoding, typed error frames."""

import json

import pytest

from repro.engine.database import ConstraintViolationError
from repro.relational.tuples import NULL
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    MUTATION_VERBS,
    VERBS,
    ProtocolError,
    RemoteConstraintViolation,
    RemoteError,
    decode_frame,
    decode_pk,
    decode_row,
    decode_rows,
    encode_frame,
    encode_row,
    error_frame,
    ok_frame,
    raise_error,
    request_frame,
    violation_frame,
)


def test_frame_round_trip():
    frame = request_frame(7, "insert", scheme="COURSE", row={"C.NR": "c1"})
    wire = encode_frame(frame)
    assert wire.endswith(b"\n")
    assert b"\n" not in wire[:-1]  # one frame per line, no embedded newlines
    assert decode_frame(wire) == frame
    assert decode_frame(wire.decode("utf-8")) == frame


def test_null_marker_round_trips_rows_and_pks():
    row = {"O.C.NR": "c1", "O.D.NAME": NULL}
    encoded = encode_row(row)
    assert encoded["O.D.NAME"] == {"$null": True}
    assert json.loads(json.dumps(encoded)) == encoded  # JSON-safe
    assert decode_row(encoded) == row
    assert decode_row(encoded)["O.D.NAME"] is NULL
    pk = ("c1", NULL)
    wire = decode_frame(encode_frame({"pk": list(pk)}))["pk"]
    assert wire == ["c1", {"$null": True}]
    assert decode_pk(wire) == pk


@pytest.mark.parametrize(
    "line,match",
    [
        (b"not json\n", "not valid JSON"),
        (b"[1, 2]\n", "must be a JSON object"),
        (b"\xff\xfe\n", "not valid UTF-8"),
        (b"x" * (MAX_FRAME_BYTES + 1), "exceeds"),
    ],
)
def test_decode_frame_rejects(line, match):
    with pytest.raises(ProtocolError, match=match):
        decode_frame(line)


def test_mutation_verbs_are_a_subset_of_verbs():
    assert MUTATION_VERBS < set(VERBS)


def test_ok_and_error_frames():
    assert ok_frame(3, [1]) == {"id": 3, "ok": True, "result": [1]}
    frame = error_frame(4, "not-found", "no such row", detail=None)
    assert frame == {
        "id": 4,
        "ok": False,
        "error": {"type": "not-found", "message": "no such row"},
    }  # None extras are dropped


def test_violation_frame_carries_full_provenance():
    exc = ConstraintViolationError(
        "restrict-delete", "COURSE c1 is referenced", kind="restrict-delete"
    )
    frame = violation_frame(9, exc)
    error = frame["error"]
    assert error["type"] == "constraint-violation"
    assert error["constraint"] == "restrict-delete"
    assert error["kind"] == "restrict-delete"
    assert "Section 5.1" in error["rule"]  # the paper-rule label
    with pytest.raises(RemoteConstraintViolation) as info:
        raise_error(frame)
    assert info.value.kind == "restrict-delete"
    assert info.value.rule == error["rule"]


def test_raise_error_maps_other_types_to_remote_error():
    with pytest.raises(RemoteError) as info:
        raise_error(error_frame(1, "wal-error", "log is poisoned"))
    assert info.value.type == "wal-error"
    assert not isinstance(info.value, RemoteConstraintViolation)
    with pytest.raises(ProtocolError):
        raise_error({"id": 1, "ok": False})  # no error object at all


def test_frame_with_nulls_encodes_byte_identically_to_encoded_rows():
    """Golden wire bytes: the frame encoder writing ``NULL`` itself
    produces exactly the bytes of the per-value encoded rows."""
    rows = [
        {"O.C.NR": "c1", "O.D.NAME": NULL},
        {"O.C.NR": "c\u00e9", "O.D.NAME": "cs"},
        None,
    ]
    encoded = [encode_row(r) if r is not None else None for r in rows]
    golden = json.dumps(ok_frame(5, encoded), separators=(",", ":"))
    assert encode_frame(ok_frame(5, rows)) == golden.encode("utf-8") + b"\n"
    assert encode_frame(ok_frame(5, rows)) == (
        b'{"id":5,"ok":true,"result":[{"O.C.NR":"c1","O.D.NAME":'
        b'{"$null":true}},{"O.C.NR":"c\\u00e9","O.D.NAME":"cs"},null]}\n'
    )


def test_encode_frame_still_rejects_other_objects():
    with pytest.raises(TypeError, match="not JSON serializable"):
        encode_frame(ok_frame(1, {"x": object()}))


def test_decode_rows_returns_a_marker_free_batch_as_is():
    rows = [{"O.C.NR": "c1", "O.D.NAME": "cs"}, None, {"O.C.NR": "c2"}]
    assert decode_rows(rows) is rows
    assert decode_rows([]) == []


def test_decode_rows_finds_a_marker_in_the_last_value():
    rows = [
        {"O.C.NR": "c1", "O.D.NAME": "cs"},
        None,
        {"O.C.NR": "c2", "O.D.NAME": {"$null": True}},
    ]
    decoded = decode_rows(rows)
    assert decoded is not rows
    assert decoded[0] == rows[0] and decoded[1] is None
    assert decoded[2] == {"O.C.NR": "c2", "O.D.NAME": NULL}
    assert decoded[2]["O.D.NAME"] is NULL


def test_batch_op_decoder_fast_and_fallback_paths_agree():
    """A marker-free batch converts in bulk, adopting the wire rows; a
    batch with a marker anywhere decodes op by op to the same shapes;
    a malformed op still gets the op-by-op error naming it."""
    from repro.server.protocol import decode_batch_ops as _decode_batch_ops

    row = {"O.C.NR": "c1", "O.D.NAME": "cs"}
    plain = [
        ["insert", "OFFER", row],
        ["update", "OFFER", ["c1"], {"O.D.NAME": "ee"}],
        ["delete", "ASSIST", ["c1"]],
    ]
    ops = _decode_batch_ops(plain)
    assert ops == [
        ("insert", "OFFER", row),
        ("update", "OFFER", "c1", {"O.D.NAME": "ee"}),
        ("delete", "ASSIST", "c1"),
    ]
    assert ops[0][2] is row  # adopted, not copied
    assert _decode_batch_ops([["delete", "ASSIST", ["c1"]]]) == [
        ("delete", "ASSIST", "c1")
    ]
    marked = plain[:2] + [["delete", "ASSIST", ["c1", {"$null": True}]]]
    assert _decode_batch_ops(marked)[2] == ("delete", "ASSIST", ("c1", NULL))
    nulled = [["update", "OFFER", ["c1"], {"O.D.NAME": {"$null": True}}]]
    assert _decode_batch_ops(nulled) == [
        ("update", "OFFER", "c1", {"O.D.NAME": NULL})
    ]
    for bad in (
        [["delete", "ASSIST"]],
        [["update", "OFFER", ["c1"]]],
        [["insert", "OFFER", ["c1"]]],
        [{"kind": "delete"}],
    ):
        with pytest.raises(ProtocolError, match=r"ops\[0\]"):
            _decode_batch_ops(bad)
    with pytest.raises(ProtocolError, match=r"ops\[1\] is not a valid"):
        _decode_batch_ops([["delete", "ASSIST", ["c1"]], ["upsert", "X", {}]])
