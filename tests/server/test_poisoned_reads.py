"""Reads after a failed group-commit barrier.

When the barrier's sync fails, the group's mutations are already
applied in memory but were never made durable, and the writer of each
got a ``wal-error`` frame.  From then on the in-memory state holds rows
no recovery would bring back, so no read may serve it: every read verb
answers ``wal-error`` too, while ``stats``, ``metrics``, ``spans`` and
``topology`` keep answering so the failure can be observed.
"""

from __future__ import annotations

import pytest

from repro.client import Client, RemoteError
from repro.engine.database import Database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.server import ServerConfig, ServerThread
from repro.server.protocol import (
    DECISION_VERBS,
    MUTATION_VERBS,
    REPLICATION_VERBS,
    VERBS,
)
from repro.server.service import POISON_EXEMPT_VERBS
from repro.workloads.university import university_relational


class SecondSyncFails(MemoryStorage):
    """In-memory storage whose second ``sync`` raises."""

    def __init__(self) -> None:
        super().__init__()
        self.syncs = 0

    def sync(self) -> None:
        self.syncs += 1
        if self.syncs == 2:
            raise OSError("device lost the write")


def test_reads_answer_wal_error_once_a_barrier_failed():
    db = Database(university_relational(), wal=WriteAheadLog(SecondSyncFails()))
    with ServerThread(db, ServerConfig(max_connections=4)) as served:
        with Client(port=served.port, timeout=30) as c:
            c.apply_batch(  # one group: the first barrier syncs
                [
                    ("insert", "DEPARTMENT", {"D.NAME": "physics"}),
                    ("insert", "COURSE", {"C.NR": "c1"}),
                    ("insert", "OFFER", {"O.C.NR": "c1", "O.D.NAME": "physics"}),
                ]
            )
            with pytest.raises(RemoteError) as info:
                c.insert("DEPARTMENT", {"D.NAME": "chemistry"})
            assert info.value.type == "wal-error"
            reads = {
                "get": lambda: c.get("DEPARTMENT", "chemistry"),
                "get of a durable row": lambda: c.get("DEPARTMENT", "physics"),
                "exists": lambda: c.call(
                    "exists",
                    scheme="DEPARTMENT",
                    attrs=["D.NAME"],
                    value=["chemistry"],
                ),
                "join_to": lambda: c.join_to(
                    "OFFER", "c1", ["O.D.NAME"], "DEPARTMENT"
                ),
                "find_referencing": lambda: c.find_referencing(
                    "DEPARTMENT", "physics", "OFFER", ["O.D.NAME"], ["D.NAME"]
                ),
                "check": c.check,
                "explain": lambda: c.explain("insert", "OFFER"),
                "advise": c.advise,
            }
            for name, read in reads.items():
                with pytest.raises(RemoteError) as info:
                    read()
                assert info.value.type == "wal-error", name
            # Every read verb but the exempt ones is refused before its
            # arguments are looked at, a verb added later included.
            for verb in set(VERBS) - MUTATION_VERBS - DECISION_VERBS - (
                REPLICATION_VERBS | POISON_EXEMPT_VERBS
            ):
                with pytest.raises(RemoteError) as info:
                    c.call(verb)
                assert info.value.type == "wal-error", verb
            assert c.call("topology") is not None
            assert c.stats()["server"]["poisoned"]
            assert "repro_server_requests_total" in c.metrics()
            assert c.spans()["spans"] == []
