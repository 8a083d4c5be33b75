"""The served verbs, end to end: a real socket, a real event loop.

Every test speaks to a :class:`ServerThread`-hosted server through the
blocking client -- the same path a remote application would use -- and
asserts the served behaviour matches what the in-process engine does,
including the provenance carried by rejection frames (the Section 5
declarative-enforcement story over the wire).
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.client import Client
from repro.constraints.checker import ConsistencyChecker
from repro.engine.database import Database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.relational.tuples import NULL, Tuple
from repro.server import ServerConfig, ServerThread
from repro.server.server import ReproServer
from repro.server.protocol import (
    RemoteConstraintViolation,
    RemoteError,
    decode_frame,
    encode_frame,
)
from repro.workloads.university import university_relational, university_state


def test_insert_get_update_delete_round_trip(client):
    stored = client.insert("COURSE", {"C.NR": "c1"})
    assert stored == {"C.NR": "c1"}
    assert client.get("COURSE", "c1") == {"C.NR": "c1"}
    client.insert("DEPARTMENT", {"D.NAME": "cs"})
    offer = client.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
    assert offer == {"O.C.NR": "c1", "O.D.NAME": "cs"}
    client.insert("DEPARTMENT", {"D.NAME": "ee"})
    updated = client.update("OFFER", "c1", {"O.D.NAME": "ee"})
    assert updated == {"O.C.NR": "c1", "O.D.NAME": "ee"}
    client.delete("OFFER", "c1")
    assert client.get("OFFER", "c1") is None


def test_insert_many_and_apply_batch(client):
    rows = client.insert_many(
        "COURSE", [{"C.NR": f"c{i}"} for i in range(3)]
    )
    assert [r["C.NR"] for r in rows] == ["c0", "c1", "c2"]
    results = client.apply_batch(
        [
            ("insert", "DEPARTMENT", {"D.NAME": "cs"}),
            ("update", "COURSE", "c0", {"C.NR": "c0"}),
            ("delete", "COURSE", "c2"),
        ]
    )
    assert results[0] == {"D.NAME": "cs"}
    assert results[1] == {"C.NR": "c0"}
    assert results[2] is None
    assert client.get("COURSE", "c2") is None


def test_rejections_carry_paper_rule_provenance(client):
    client.insert("COURSE", {"C.NR": "c1"})
    with pytest.raises(RemoteConstraintViolation) as info:
        client.insert("COURSE", {"C.NR": "c1"})
    assert info.value.kind == "primary-key"
    assert "Section" in info.value.rule

    client.insert("DEPARTMENT", {"D.NAME": "cs"})
    client.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
    with pytest.raises(RemoteConstraintViolation) as info:
        client.delete("COURSE", "c1")
    assert info.value.kind == "restrict-delete"
    assert "restrict rule" in info.value.rule
    # The rejected mutation left no trace in served state.
    assert client.get("COURSE", "c1") is not None


def test_rejected_mutations_do_not_break_the_connection(client):
    with pytest.raises(RemoteConstraintViolation):
        client.insert("OFFER", {"O.C.NR": "ghost", "O.D.NAME": NULL})
    # Same connection keeps working.
    assert client.insert("COURSE", {"C.NR": "c1"}) == {"C.NR": "c1"}


def test_error_types(client):
    with pytest.raises(RemoteError) as info:
        client.delete("COURSE", "ghost")
    assert info.value.type == "not-found"
    with pytest.raises(RemoteError) as info:
        client.call("frobnicate")
    assert info.value.type == "bad-request"
    with pytest.raises(RemoteError) as info:
        client.call("insert", scheme="COURSE")  # missing 'row'
    assert info.value.type == "bad-request"
    with pytest.raises(RemoteError) as info:
        client.call("insert", scheme="NOPE", row={})
    assert info.value.type in ("not-found", "bad-request")


def test_join_to_and_find_referencing(client):
    client.insert("COURSE", {"C.NR": "c1"})
    client.insert("DEPARTMENT", {"D.NAME": "cs"})
    client.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
    course = client.join_to("OFFER", "c1", ["O.C.NR"], "COURSE", ["C.NR"])
    assert course == {"C.NR": "c1"}
    offers = client.find_referencing(
        "DEPARTMENT", "cs", "OFFER", ["O.D.NAME"], ["D.NAME"]
    )
    assert [o["O.C.NR"] for o in offers] == ["c1"]
    with pytest.raises(RemoteError) as info:
        client.join_to("OFFER", "ghost", ["O.C.NR"], "COURSE", ["C.NR"])
    assert info.value.type == "not-found"


def test_check_explain_metrics_stats(client):
    client.insert("COURSE", {"C.NR": "c1"})
    verdict = client.check()
    assert verdict == {"consistent": True, "violations": []}
    plan = client.explain("insert", "COURSE")
    assert plan["op"] == "insert" and plan["scheme"] == "COURSE"
    assert any("Section" in str(c.get("rule", "")) for c in plan["checks"])
    metrics = client.metrics()
    assert "repro_engine_inserts 1" in metrics
    stats = client.stats()
    assert stats["inserts"] == 1
    assert stats["wal_group_commits"] >= 1
    assert stats["wal_batched_records"] >= 1


@pytest.mark.parametrize("consistent", [True, False])
def test_check_verb_answers_as_the_checker_over_the_state(consistent):
    """The verb re-checks the tables directly; its answer is the one a
    checker pass over the rebuilt state gives, violations in order."""
    schema = university_relational()
    state = university_state(n_courses=30, seed=5)
    if not consistent:
        state = state.with_relation(
            "OFFER",
            state["OFFER"].with_tuples(
                [Tuple({"O.C.NR": "ghost", "O.D.NAME": "nowhere"})]
            ),
        ).with_relation(
            "COURSE", state["COURSE"].with_tuples([Tuple({"C.NR": NULL})])
        )
    db = Database(schema)
    db.load_state(state, validate=False)
    want = [str(v) for v in ConsistencyChecker(schema).violations(db.state())]
    assert bool(want) != consistent
    with ServerThread(db) as thread, Client(port=thread.port) as c:
        verdict = c.check()
    assert verdict == {"consistent": consistent, "violations": want}


def test_acks_only_after_the_barrier(served_db, client):
    """Every acknowledged mutation is covered by a completed group
    commit: batched-records counted at barriers >= records acked."""
    for i in range(10):
        client.insert("COURSE", {"C.NR": f"c{i}"})
    stats = client.stats()
    assert stats["wal_batched_records"] >= 10
    assert served_db.db.wal.unsynced_records == 0  # nothing acked-but-unsynced


def test_connection_limit_answers_overloaded(served_db):
    held = [Client(port=served_db.port, timeout=30) for _ in range(8)]
    try:
        with socket.create_connection(
            ("127.0.0.1", served_db.port), timeout=30
        ) as sock:
            frame = decode_frame(sock.makefile("rb").readline())
            assert frame["ok"] is False
            assert frame["error"]["type"] == "overloaded"
    finally:
        for c in held:
            c.close()


def test_malformed_frame_answers_then_closes(served_db):
    with socket.create_connection(
        ("127.0.0.1", served_db.port), timeout=30
    ) as sock:
        fh = sock.makefile("rwb")
        fh.write(b"this is not json\n")
        fh.flush()
        frame = decode_frame(fh.readline())
        assert frame["error"]["type"] == "bad-request"
        assert fh.readline() == b""  # server hung up: framing never resyncs


def test_response_ids_echo_requests(served_db):
    with socket.create_connection(
        ("127.0.0.1", served_db.port), timeout=30
    ) as sock:
        fh = sock.makefile("rwb")
        fh.write(encode_frame({"id": "my-token", "verb": "stats"}))
        fh.flush()
        frame = decode_frame(fh.readline())
        assert frame["id"] == "my-token"
        assert frame["ok"] is True


def test_drain_checkpoints_the_wal(served_db, client):
    client.insert("COURSE", {"C.NR": "c1"})
    served_db.stop()
    db = served_db.db
    assert db.stats.checkpoints == 1
    # Post-drain the log is compacted to header + snapshot.
    from repro.engine.wal import parse_wal

    ops = [r["op"] for r in parse_wal(db.wal.storage.read()).records]
    assert ops == ["header", "snapshot"]


class _SlowSyncStorage(MemoryStorage):
    """Memory storage whose first armed sync blocks for ``delay``
    seconds, holding one mutation in flight."""

    def __init__(self, delay: float):
        super().__init__()
        self.delay = delay
        self.armed = False
        self.syncing = threading.Event()

    def sync(self) -> None:
        if self.armed and not self.syncing.is_set():
            self.syncing.set()
            time.sleep(self.delay)


def test_drain_ends_idle_sessions_and_answers_the_inflight_mutation():
    """A drain with idle connections open and one mutation waiting on
    its group commit: the idle sessions end at once, the mutation gets
    its reply, and the drain finishes promptly."""
    storage = _SlowSyncStorage(delay=0.5)
    db = Database(university_relational(), wal=WriteAheadLog(storage))
    thread = ServerThread(db, ServerConfig(max_connections=8)).start()
    idle = [Client(port=thread.port, timeout=30) for _ in range(3)]
    try:
        for c in idle:
            assert c.get("COURSE", "c0") is None  # the session is open
        replies: list = []
        with Client(port=thread.port, timeout=30) as writer:
            storage.armed = True
            sender = threading.Thread(
                target=lambda: replies.append(
                    writer.insert("COURSE", {"C.NR": "c1"})
                )
            )
            sender.start()
            assert storage.syncing.wait(timeout=10)
            started = time.monotonic()
            thread.stop()
            drain_s = time.monotonic() - started
            sender.join(timeout=10)
        assert replies == [{"C.NR": "c1"}]
        assert drain_s < 5.0
        for c in idle:
            with pytest.raises((RemoteError, ConnectionError, OSError)):
                c.get("COURSE", "c1")
    finally:
        for c in idle:
            c.close()
        thread.stop()
    assert db.get("COURSE", ("c1",)) is not None


def test_drain_answers_a_request_line_that_arrived_as_it_began():
    """A request line buffered just before the drain, whose session has
    not yet resumed, is read (and so answered), not cancelled away."""

    async def scenario():
        server = ReproServer(Database(university_relational()))
        reader = asyncio.StreamReader()
        read = asyncio.ensure_future(server._read_request(reader))
        await asyncio.sleep(0)  # the session now waits for a line
        reader.feed_data(b'{"id": 1}\n')  # its wakeup is queued
        await server.drain()
        return await read

    assert asyncio.run(scenario()) == b'{"id": 1}\n'


def test_sigterm_drain_prints_json_summary_to_stderr(tmp_path):
    """Graceful drain ends with a machine-readable telemetry snapshot:
    one JSON object on stderr (the human ``drained:`` line stays on
    stdout for scripts that grep it)."""
    import json
    import os
    import re
    import signal
    import subprocess
    import sys as _sys

    from repro.io import relational_schema_to_dict
    from repro.workloads.university import university_relational

    schema_path = tmp_path / "university.json"
    schema_path.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (
            env.get("PYTHONPATH"),
            os.path.join(os.path.dirname(__file__), "..", "..", "src"),
        )
        if p
    )
    proc = subprocess.Popen(
        [
            _sys.executable, "-m", "repro", "serve", str(schema_path),
            "--wal", str(tmp_path / "server.wal"),
            "--port", "0", "--metrics-port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        ready = proc.stdout.readline()
        match = re.search(r"listening on [\d.]+:(\d+)", ready)
        assert match, f"no readiness line: {ready!r}"
        metrics_line = proc.stdout.readline()
        assert re.search(r"metrics on [\d.]+:\d+", metrics_line)
        port = int(match.group(1))
        with Client(port=port, timeout=30) as c:
            c.insert("COURSE", {"C.NR": "c1"})
            with pytest.raises(RemoteConstraintViolation):
                c.insert("COURSE", {"C.NR": "c1"})
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)
    assert proc.returncode == 0
    assert any(line.startswith("drained: ") for line in out.splitlines())
    summary = next(
        json.loads(line)
        for line in err.splitlines()
        if line.startswith("{")
    )
    assert summary["event"] == "drained"
    assert summary["sessions"] == 1
    assert summary["requests"] == 2
    assert summary["poisoned"] is None
    assert summary["engine"]["inserts"] == 1
    assert summary["checkpoints"] == 1
    names = {f["name"] for f in summary["server"]["metrics"]}
    assert "repro_server_violations_total" in names


def test_client_round_trips_null_through_bulk_verbs():
    """A nullable non-key attribute set to ``NULL`` survives
    ``insert_many`` and an ``apply_batch`` update both ways: the client
    sends rows as given, the frame encoder writes the marker, the
    server stores a real ``NULL``, and results decode back to it."""
    from repro.constraints.nulls import nulls_not_allowed
    from repro.engine.database import Database
    from repro.relational.attributes import Attribute, Domain
    from repro.relational.schema import RelationScheme, RelationalSchema
    from repro.server import ServerThread

    item = Attribute("I.ID", Domain("id"))
    note = Attribute("I.NOTE", Domain("note"))
    schema = RelationalSchema(
        schemes=(RelationScheme("ITEM", (item, note), (item,)),),
        inds=(),
        null_constraints=(nulls_not_allowed("ITEM", ["I.ID"]),),
    )
    db = Database(schema)
    with ServerThread(db) as served, Client(port=served.port, timeout=30) as c:
        stored = c.insert_many(
            "ITEM",
            [{"I.ID": "i1", "I.NOTE": NULL}, {"I.ID": "i2", "I.NOTE": "n"}],
        )
        assert stored == [
            {"I.ID": "i1", "I.NOTE": NULL},
            {"I.ID": "i2", "I.NOTE": "n"},
        ]
        assert stored[0]["I.NOTE"] is NULL
        results = c.apply_batch(
            [
                ("update", "ITEM", "i2", {"I.NOTE": NULL}),
                ("update", "ITEM", ("i1",), {"I.NOTE": "m"}),
            ]
        )
        assert results == [
            {"I.ID": "i2", "I.NOTE": NULL},
            {"I.ID": "i1", "I.NOTE": "m"},
        ]
        assert results[0]["I.NOTE"] is NULL
        assert c.get("ITEM", "i2")["I.NOTE"] is NULL
    assert db.get("ITEM", "i2")["I.NOTE"] is NULL
    assert db.get("ITEM", "i1")["I.NOTE"] == "m"


def test_served_bulk_verbs_hand_out_the_stored_dicts(monkeypatch):
    """The bulk verbs answer with the stored row dicts: no row view is
    built for a served batch, and the response bytes stay as they
    were."""
    import repro.engine.rows as rows_module

    calls = []
    adopt_row = rows_module.adopt_row

    def spy(values):
        calls.append(values)
        return adopt_row(values)

    monkeypatch.setattr("repro.engine.rows.adopt_row", spy)
    monkeypatch.setattr("repro.engine.database.adopt_row", spy)
    span = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-00"
    requests = [
        {
            "id": 1,
            "verb": "insert_many",
            "scheme": "COURSE",
            "rows": [{"C.NR": "c1"}, {"C.NR": "c2"}],
            "span": span,
        },
        {
            "id": 2,
            "verb": "apply_batch",
            "ops": [
                ["insert", "DEPARTMENT", {"D.NAME": "cs"}],
                ["insert", "DEPARTMENT", {"D.NAME": "ee"}],
                ["insert", "OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"}],
            ],
            "span": span,
        },
        {
            "id": 3,
            "verb": "apply_batch",
            "ops": [
                ["update", "OFFER", ["c1"], {"O.D.NAME": "ee"}],
                ["delete", "COURSE", ["c2"]],
            ],
            "span": span,
        },
    ]
    db = Database(university_relational(), wal=WriteAheadLog(MemoryStorage()))
    responses = []
    with ServerThread(db) as served:
        with socket.create_connection(("127.0.0.1", served.port)) as sock:
            stream = sock.makefile("rwb")
            for request in requests:
                stream.write(encode_frame(request))
                stream.flush()
                responses.append(stream.readline())
    assert calls == []
    trace = b'"trace_id":"' + b"ab" * 16 + b'"}\n'
    assert responses == [
        b'{"id":1,"ok":true,"result":[{"C.NR":"c1"},{"C.NR":"c2"}],'
        b'"lsn":2,' + trace,
        b'{"id":2,"ok":true,"result":[{"D.NAME":"cs"},{"D.NAME":"ee"},'
        b'{"O.C.NR":"c1","O.D.NAME":"cs"}],"lsn":3,' + trace,
        b'{"id":3,"ok":true,"result":[{"O.C.NR":"c1","O.D.NAME":"ee"},null],'
        b'"lsn":4,' + trace,
    ]
