"""One mapping from exception to error frame.

A fault in a batch gets the same error frame whichever path meets it:
the group-committed ``apply_batch`` or phase one of a cross-shard
batch (``batch_prepare``), on a worker of a two-shard fleet.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine.database import Database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.server import DatabaseService, ShardInfo
from repro.server.router import shard_of
from repro.server.service import Session
from repro.workloads.university import university_relational


def _key(shard: int, tag: str) -> str:
    """A COURSE key that worker ``shard`` of two owns."""
    return next(
        f"{tag}{i}" for i in range(1000)
        if shard_of("COURSE", [f"{tag}{i}"], 2) == shard
    )


OWN, FOREIGN = _key(0, "own"), _key(1, "foreign")

FAULTS = {
    "constraint-violation": ["insert", "COURSE", {"C.NR": OWN}],
    "not-found": ["insert", "NOPE", {"C.NR": OWN}],
    "bad-request": ["insert", "COURSE"],
    "wrong-shard": ["insert", "COURSE", {"C.NR": FOREIGN}],
}


async def _errors(op: list) -> tuple[dict, dict]:
    db = Database(university_relational(), wal=WriteAheadLog(MemoryStorage()))
    db.insert("COURSE", {"C.NR": OWN})
    service = DatabaseService(db, shard=ShardInfo(worker_id=0, n_shards=2))
    await service.start()
    try:
        session = Session(id=1)
        frames = [
            await service.handle(
                session, {"id": 1, "verb": "apply_batch", "ops": [op]}
            ),
            await service.handle(
                session,
                {"id": 1, "verb": "batch_prepare", "xid": "x1", "ops": [op]},
            ),
        ]
    finally:
        await service.stop()
    for frame in frames:
        assert frame["ok"] is False
        del frame["error"]["trace_id"]
    return frames[0]["error"], frames[1]["error"]


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_apply_batch_and_prepare_map_a_fault_to_one_frame(kind):
    batch, prepare = asyncio.run(_errors(FAULTS[kind]))
    assert batch["type"] == kind
    assert batch == prepare
