"""Shard-router edge cases against a real ``serve --workers N`` fleet.

Everything here runs over the wire against supervisor-spawned worker
processes (:class:`repro.server.supervisor.FleetProcess`): ownership
enforcement (wrong-shard rejection, no row migration on pk-changing
updates), cross-shard inclusion-dependency batches rejected atomically
via the two-phase prepare protocol, a worker SIGKILLed while it holds
an undecided prepare (the volatile-prepare contract: recovery aborts
it), and a graceful fleet drain while one worker is parked on a held
prepare.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.client import Client, ShardedClient
from repro.io import relational_schema_to_dict
from repro.server.protocol import (
    RemoteConstraintViolation,
    RemoteError,
)
from repro.server.router import shard_of
from repro.server.supervisor import FleetProcess, _pid_alive
from repro.workloads.university import university_relational

WORKERS = 2


def _keys_for_shard(scheme: str, shard: int, count: int, tag: str):
    """``count`` key strings of ``scheme`` that hash to ``shard``."""
    out = []
    i = 0
    while len(out) < count:
        key = f"{tag}-{i}"
        if shard_of(scheme, [key], WORKERS) == shard:
            out.append(key)
        i += 1
    return out


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fleet")
    schema_file = tmp / "university.json"
    schema_file.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    fleet = FleetProcess(
        str(schema_file),
        workers=WORKERS,
        wal=str(tmp / "fleet.wal"),
        extra_args=("--prepare-timeout", "10"),
    )
    try:
        fleet.wait_ready()
        yield fleet
    finally:
        fleet.stop()


@pytest.fixture(scope="module")
def sclient(fleet):
    with ShardedClient(port=fleet.port, timeout=30) as c:
        yield c


def test_topology_reports_fleet(fleet):
    with Client(port=fleet.port, timeout=30) as c:
        topo = c.call("topology")
    assert topo["workers"] == WORKERS
    assert len(topo["ports"]) == WORKERS
    assert sorted(topo["ports"]) == sorted(fleet.worker_ports.values())
    course = topo["schemes"]["COURSE"]
    assert course["key"] == ["C.NR"]
    assert course["refs_out"] is False  # nothing points out of COURSE
    assert course["refs_in"] is True  # OFFER references it


def test_rows_land_on_their_owning_worker_only(fleet, sclient):
    keys = [k for s in range(WORKERS) for k in _keys_for_shard("COURSE", s, 3, f"own{s}")]
    for key in keys:
        sclient.insert("COURSE", {"C.NR": key})
    for key in keys:
        owner = shard_of("COURSE", [key], WORKERS)
        with Client(port=fleet.worker_ports[owner], timeout=30) as c:
            assert c.get("COURSE", (key,))["C.NR"] == key
        other = (owner + 1) % WORKERS
        with Client(port=fleet.worker_ports[other], timeout=30) as c:
            with pytest.raises(RemoteError) as exc_info:
                c.get("COURSE", (key,))
            assert exc_info.value.type == "wrong-shard"
            assert exc_info.value.extra["worker"] == owner


def test_wrong_shard_mutation_rejected_before_any_write(fleet):
    key = _keys_for_shard("COURSE", 0, 1, "misroute")[0]
    with Client(port=fleet.worker_ports[1], timeout=30) as c:
        with pytest.raises(RemoteError) as exc_info:
            c.insert("COURSE", {"C.NR": key})
    assert exc_info.value.type == "wrong-shard"
    with Client(port=fleet.worker_ports[0], timeout=30) as c:
        assert c.get("COURSE", (key,)) is None


def test_pk_changing_update_to_foreign_shard_rejected(fleet, sclient):
    key = _keys_for_shard("COURSE", 0, 1, "pkmove")[0]
    foreign = _keys_for_shard("COURSE", 1, 1, "pkmove-target")[0]
    sclient.insert("COURSE", {"C.NR": key})
    with pytest.raises(RemoteError) as exc_info:
        sclient.update("COURSE", (key,), {"C.NR": foreign})
    assert exc_info.value.type == "wrong-shard"
    # the row never moved: still at home under its old key
    assert sclient.get("COURSE", (key,))["C.NR"] == key
    assert sclient.get("COURSE", (foreign,)) is None


def test_cross_shard_reference_satisfied_via_prepare(sclient):
    sclient.insert("PERSON", {"P.SSN": "ssn-x1"})
    row = sclient.insert("FACULTY", {"F.SSN": "ssn-x1"})
    assert row["F.SSN"] == "ssn-x1"


def test_cross_shard_dangling_reference_rejected(sclient):
    with pytest.raises(RemoteConstraintViolation) as exc_info:
        sclient.insert("FACULTY", {"F.SSN": "ssn-nowhere"})
    assert "FACULTY" in str(exc_info.value)
    assert sclient.get("FACULTY", ("ssn-nowhere",)) is None


def test_cross_shard_restrict_delete_rejected(sclient):
    sclient.insert("PERSON", {"P.SSN": "ssn-held"})
    sclient.insert("STUDENT", {"S.SSN": "ssn-held"})
    with pytest.raises(RemoteConstraintViolation):
        sclient.delete("PERSON", ("ssn-held",))
    assert sclient.get("PERSON", ("ssn-held",)) is not None
    # dropping the referencer first unblocks the delete
    sclient.delete("STUDENT", ("ssn-held",))
    sclient.delete("PERSON", ("ssn-held",))
    assert sclient.get("PERSON", ("ssn-held",)) is None


def test_cross_shard_batch_rejected_atomically(fleet, sclient):
    """One batch spanning both shards: the good half prepares on its
    worker, the bad half fails its reference check -- nothing from
    either shard may survive."""
    good = [_keys_for_shard("COURSE", s, 1, f"atomic{s}")[0] for s in range(WORKERS)]
    ops = [("insert", "COURSE", {"C.NR": k}) for k in good]
    ops.append(("insert", "FACULTY", {"F.SSN": "ssn-absent"}))
    with pytest.raises(RemoteConstraintViolation):
        sclient.apply_batch(ops)
    for key in good:
        assert sclient.get("COURSE", (key,)) is None, (
            f"{key} leaked from an aborted cross-shard batch"
        )
    # the fleet is still fully writable afterwards
    accepted = sclient.apply_batch(
        [("insert", "COURSE", {"C.NR": k}) for k in good]
    )
    assert len(accepted) == len(good)


def test_mixed_cross_shard_batch_results_in_request_order(sclient):
    keys = [
        _keys_for_shard("COURSE", s % WORKERS, 1, f"order{s}")[0]
        for s in range(4)
    ]
    rows = sclient.apply_batch(
        [("insert", "COURSE", {"C.NR": k}) for k in keys]
    )
    assert [r["C.NR"] for r in rows] == keys


def test_worker_sigkill_with_held_prepare_aborts_on_recovery(
    tmp_path,
):
    """SIGKILL a worker holding an undecided prepare: the respawned
    worker must recover without the prepared rows (volatile prepare --
    no commit marker ever reached its WAL) while all previously acked
    plain writes survive."""
    schema_file = tmp_path / "university.json"
    schema_file.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    fleet = FleetProcess(
        str(schema_file),
        workers=WORKERS,
        wal=str(tmp_path / "fleet.wal"),
        extra_args=("--prepare-timeout", "30"),
    )
    try:
        fleet.wait_ready()
        acked = _keys_for_shard("COURSE", 0, 5, "durable")
        with ShardedClient(port=fleet.port, timeout=30) as sc:
            for key in acked:
                sc.insert("COURSE", {"C.NR": key})
        held = _keys_for_shard("COURSE", 0, 1, "held")[0]
        victim = Client(port=fleet.worker_ports[0], timeout=30)
        ack = victim.call(
            "batch_prepare",
            xid="xid-sigkill",
            ops=[["insert", "COURSE", {"C.NR": held}]],
        )
        assert ack["requirements"] == []
        fleet.kill_worker(0)
        fleet.wait_worker(0)  # supervisor respawns it, WAL recovered
        victim.close()
        with ShardedClient(port=fleet.port, timeout=30) as sc:
            for key in acked:  # every acked pre-kill write survived
                assert sc.get("COURSE", (key,)) is not None, key
            # the undecided prepare died with the worker
            assert sc.get("COURSE", (held,)) is None
            # and the respawned worker accepts writes again
            sc.insert("COURSE", {"C.NR": held})
            assert sc.get("COURSE", (held,)) is not None
        assert 0 in fleet.respawned
        assert fleet.stop() == 0
    finally:
        if fleet.proc.poll() is None:
            fleet.proc.kill()
            fleet.proc.wait(timeout=60)


def test_drain_completes_with_one_slow_worker(tmp_path):
    """A graceful fleet drain while one worker is parked on a held
    prepare: the drain sentinel aborts the hold, every worker
    checkpoints, and the supervisor exits 0 without waiting out the
    prepare timeout."""
    schema_file = tmp_path / "university.json"
    schema_file.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    fleet = FleetProcess(
        str(schema_file),
        workers=WORKERS,
        wal=str(tmp_path / "fleet.wal"),
        extra_args=("--prepare-timeout", "600"),
    )
    try:
        fleet.wait_ready()
        slow = Client(port=fleet.worker_ports[0], timeout=30)
        key = _keys_for_shard("COURSE", 0, 1, "slow")[0]
        slow.call(
            "batch_prepare",
            xid="xid-slow",
            ops=[["insert", "COURSE", {"C.NR": key}]],
        )
        # never decide; the worker's writer is parked on the hold
        t0 = time.monotonic()
        code = fleet.stop()
        elapsed = time.monotonic() - t0
        assert code == 0
        assert elapsed < 60, f"drain stalled {elapsed:.0f}s on the hold"
        assert any("fleet drained" in line for line in fleet.lines)
        try:
            slow.close()
        except OSError:
            pass
    finally:
        if fleet.proc.poll() is None:
            fleet.proc.kill()
            fleet.proc.wait(timeout=60)


def test_concurrent_sharded_writers_make_progress(fleet, sclient):
    """Several sharded clients hammering both plain and two-phase paths
    concurrently; every acked write must be readable afterwards."""
    n_threads, n_ops = 4, 12
    acked: list[list[str]] = [[] for _ in range(n_threads)]
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            with ShardedClient(port=fleet.port, timeout=60) as c:
                for j in range(n_ops):
                    ssn = f"mt-{i}-{j}"
                    c.insert("PERSON", {"P.SSN": ssn})
                    c.insert("STUDENT", {"S.SSN": ssn})  # 2PC path
                    acked[i].append(ssn)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors[0]
    with ShardedClient(port=fleet.port, timeout=30) as c:
        for per_thread in acked:
            for ssn in per_thread:
                assert c.get("STUDENT", (ssn,)) is not None, ssn


def test_sigterm_right_after_readiness_drains_the_fleet(tmp_path):
    """The supervisor installs its drain handlers before it prints the
    readiness line, so a SIGTERM sent the moment the line appears
    drains every worker instead of killing the supervisor and
    orphaning them."""
    schema_file = tmp_path / "university.json"
    schema_file.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    fleet = FleetProcess(str(schema_file), workers=WORKERS)
    pids: list[int] = []
    try:
        fleet.wait_ready()
        fleet.proc.send_signal(signal.SIGTERM)
        pids = list(fleet.worker_pids.values())
        fleet.proc.wait(timeout=60)
        assert fleet.stop() == 0  # exited already: joins the reader
        assert "fleet drained" in fleet.lines
        assert len(pids) == WORKERS
        assert not [pid for pid in pids if _pid_alive(pid)]
    finally:
        for pid in pids:  # never leave an orphaned worker behind
            if _pid_alive(pid):
                os.kill(pid, signal.SIGKILL)
        fleet.stop()


def test_second_sigterm_during_drain_exits_cleanly(tmp_path):
    """A second SIGTERM (or a second Ctrl-C) landing while the fleet
    drains must not re-enter the drain from the signal handler, where
    it would wait for itself forever: the supervisor exits 0 and no
    worker is left alive."""
    schema_file = tmp_path / "university.json"
    schema_file.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    fleet = FleetProcess(
        str(schema_file), workers=WORKERS, wal=str(tmp_path / "fleet.wal")
    )
    pids: list[int] = []
    try:
        fleet.wait_ready()
        pids = list(fleet.worker_pids.values())
        fleet.proc.send_signal(signal.SIGTERM)
        time.sleep(0.05)  # usually mid-drain; after it, still ignored
        fleet.proc.send_signal(signal.SIGTERM)
        assert fleet.proc.wait(timeout=60) == 0
        assert fleet.stop() == 0  # exited already: joins the reader
        assert "fleet drained" in fleet.lines
        assert len(pids) == WORKERS
        assert not [pid for pid in pids if _pid_alive(pid)]
    finally:
        for pid in pids:  # never leave an orphaned worker behind
            if _pid_alive(pid):
                os.kill(pid, signal.SIGKILL)
        if fleet.proc.poll() is None:
            fleet.proc.kill()
            fleet.proc.wait(timeout=60)


def test_supervisor_stdout_lines_stay_whole_across_threads():
    """The supervisor's main thread and its worker pump threads share
    stdout, which readers parse line by line: two threads' lines must
    never splice into one."""
    import re
    import subprocess
    import sys

    import repro

    code = (
        "import threading\n"
        "from repro.server.supervisor import _say\n"
        "def run(i):\n"
        "    for n in range(2000):\n"
        "        _say(f't{i} {n} ' + 'x' * 40)\n"
        "threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join()\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONUNBUFFERED": "1", "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    ).stdout
    lines = out.splitlines()
    assert len(lines) == 8000
    assert all(re.fullmatch(r"t\d \d+ x{40}", line) for line in lines)
