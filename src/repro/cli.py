"""Command-line interface: ``python -m repro <command> ...``.

Schema files are the JSON forms of :mod:`repro.io`; EER files are
recognised by their ``object_sets`` field.  Commands:

``describe``   print a schema in the paper's figure style
``check``      check a database state against a schema
``explain``    show enforcement plans / merge reasoning without executing
``families``   list mergeable families with Proposition 5.1/5.2 verdicts
``merge``      apply Merge (and, by default, Remove) to named schemes
``plan``       merge every family admitted by a strategy
``migrate``    map a database state through a merge
``translate``  translate an EER design to a relational schema
``structures`` classify an EER design's single-relation structures
``ddl``        generate DDL for DB2 / SYBASE 4.0 / INGRES 6.3
``minimize``   drop implied constraints from a schema
``bench``      run the storage-engine micro-benchmarks
``recover``    rebuild the committed state from a write-ahead log
``serve``      serve a database over the JSON-lines TCP protocol
``promote``    turn a replica (or replica fleet) into the primary
``advise``     workload-driven merge recommendation from a live server
``monitor``    live terminal dashboard over a running server
``trace``      reassemble request traces from span files / a live server

Every command reads JSON from file arguments and writes human output to
stdout; ``-o`` writes machine-readable JSON results.  ``check``,
``merge`` and ``plan`` additionally take ``--explain`` (print the
decision plan) and ``--trace [FILE]`` (write a JSONL trace of every
enforcement/merge decision; ``-`` or no argument means stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.constraints.checker import ConsistencyChecker
from repro.io.relational_json import (
    relational_schema_from_dict,
    relational_schema_to_dict,
)
from repro.io.state_json import state_from_dict, state_to_dict

# Every command imports what it uses, so a start -- ``serve`` above all
# -- loads only its own modules.  The option choices below are literal
# for the same reason.

#: ``--dialect`` names and the profiles in :mod:`repro.ddl.dialects`.
DIALECTS = {
    "db2": "DB2",
    "ingres": "INGRES_63",
    "sqlite": "SQLITE",
    "sybase": "SYBASE_40",
}
#: ``--strategy`` values: :class:`repro.core.planner.MergeStrategy`'s.
STRATEGIES = ("aggressive", "key-based", "nna-only")


def _dialect(name: str):
    """The DDL dialect profile a ``--dialect`` name stands for."""
    from repro.ddl import dialects

    return getattr(dialects, DIALECTS[name])


class CliError(SystemExit):
    """A user-facing CLI failure (exit code 2)."""

    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _load_json(path: str) -> Any:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}")


def _load_relational(path: str):
    data = _load_json(path)
    if "object_sets" in data:
        raise CliError(
            f"{path} is an EER schema; run 'translate' first or pass it to "
            "an EER command"
        )
    try:
        return relational_schema_from_dict(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _load_eer(path: str):
    from repro.io.eer_json import eer_schema_from_dict

    data = _load_json(path)
    if "object_sets" not in data:
        raise CliError(f"{path} does not look like an EER schema")
    try:
        return eer_schema_from_dict(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _open_tracer(spec: str | None):
    """``--trace`` plumbing: ``None`` -> no tracer; ``-`` -> JSONL on
    stdout; anything else -> JSONL written to that path."""
    if spec is None:
        return None, None
    from repro.obs.trace import JsonlTracer

    if spec == "-":
        return JsonlTracer(sys.stdout), None
    try:
        return JsonlTracer.to_path(spec), spec
    except OSError as exc:
        raise CliError(f"cannot open trace file {spec}: {exc}")


def _close_tracer(tracer, path: str | None) -> None:
    if tracer is None:
        return
    tracer.close()
    if path is not None:
        print(f"wrote {path} ({tracer.events_written} trace event(s))")


def _write_output(path: str | None, data: Any) -> None:
    if path is None:
        return
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


# -- commands -----------------------------------------------------------------


def cmd_describe(args: argparse.Namespace) -> int:
    """``describe``: print a schema in the figure style."""
    schema = _load_relational(args.schema)
    print(schema.describe())
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """``check``: consistency-check a state (from a file, or recovered
    from a write-ahead log with ``--wal``); exit 1 on violations."""
    schema = _load_relational(args.schema)
    if (args.state is None) == (args.wal is None):
        raise CliError("pass exactly one of a state file or --wal LOG")
    if args.wal is not None:
        # Recovery may evolve the schema (a logged online merge, or a
        # checkpoint embedding the merged schema); check against the
        # schema the log actually recovered to.
        schema, state = _recovered_state(schema, args.wal)
    else:
        state = state_from_dict(_load_json(args.state), schema)
    tracer, trace_path = _open_tracer(args.trace)
    checker = ConsistencyChecker(schema, tracer=tracer)
    if args.explain:
        print(checker.explain_text())
        print()
    try:
        violations = checker.violations(state)
    finally:
        _close_tracer(tracer, trace_path)
    if not violations:
        print(f"consistent: {state.total_size()} tuples satisfy the schema")
        return 0
    for v in violations:
        print(v)
    print(f"{len(violations)} violation(s)")
    return 1


def _recovered_state(schema, wal_path: str):
    """The (schema, state) a log recovers to, unverified (for ``check
    --wal``, which runs its own consistency pass).  The returned schema
    is the recovered database's own -- a logged merge evolves it past
    the boot schema."""
    from repro.engine.recovery import RecoveryError, recover_database
    from repro.engine.wal import WalError

    try:
        result = recover_database(schema, wal_path, verify=False)
    except (RecoveryError, WalError, OSError) as exc:
        raise CliError(f"cannot recover {wal_path}: {exc}")
    schema = result.database.schema
    state = result.database.state()
    result.database.wal.close()
    return schema, state


def _tuple_count(db) -> int:
    """The database's tuple count, without materializing its state."""
    return sum(db.count(s.name) for s in db.schema.schemes)


def cmd_recover(args: argparse.Namespace) -> int:
    """``recover``: replay a write-ahead log into the committed state."""
    from repro.engine.recovery import RecoveryError, recover_database
    from repro.engine.wal import WalError

    schema = _load_relational(args.schema)
    tracer, trace_path = _open_tracer(args.trace)
    try:
        try:
            result = recover_database(
                schema,
                args.wal,
                tracer=tracer,
                verify=not args.no_verify,
            )
        except (RecoveryError, WalError, OSError) as exc:
            raise CliError(f"recovery failed: {exc}")
    finally:
        _close_tracer(tracer, trace_path)
    db, report = result.database, result.report
    print(
        f"recovered {_tuple_count(db)} tuple(s): "
        f"{report.records_replayed} record(s) replayed, "
        f"{report.transactions_rolled_back} transaction(s) rolled back, "
        f"{report.truncated_bytes} byte(s) truncated"
        + ("" if args.no_verify else "; consistency verified")
    )
    if args.checkpoint:
        db.checkpoint()
        print(f"compacted {args.wal} into a snapshot")
    db.wal.close()
    if args.output is not None:
        _write_output(args.output, state_to_dict(db.state()))
    _write_output(args.report, report.to_dict())
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``explain``: show enforcement plans (or, with ``--plan``, the
    merge planner's reasoning) without executing anything."""
    from repro.core.planner import MergePlanner, MergeStrategy
    from repro.engine.database import Database
    from repro.obs.explain import explain_database, render_database

    schema = _load_relational(args.schema)
    if args.plan:
        planner = MergePlanner(schema, MergeStrategy(args.strategy))
        print(planner.explain_text())
        _write_output(args.output, planner.explain())
        return 0
    schemes = args.scheme or None
    if schemes:
        known = set(schema.scheme_names)
        for name in schemes:
            if name not in known:
                raise CliError(f"unknown scheme {name!r}")
    ops = (args.op,) if args.op else None
    db = Database(schema)
    explanation = (
        explain_database(db, schemes, ops)
        if ops
        else explain_database(db, schemes)
    )
    print(render_database(explanation))
    _write_output(args.output, explanation)
    return 0


def cmd_families(args: argparse.Namespace) -> int:
    """``families``: list mergeable families with Prop 5.x verdicts."""
    from repro.core.planner import MergePlanner

    schema = _load_relational(args.schema)
    families = MergePlanner(schema).candidate_families()
    if not families:
        print("no mergeable families (Proposition 3.1 finds no key-relations)")
        return 0
    for family in families:
        print(family)
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    """``merge``: apply Merge (and by default Remove) to named schemes."""
    from repro.core.merge import merge as apply_merge
    from repro.core.remove import remove_all

    schema = _load_relational(args.schema)
    tracer, trace_path = _open_tracer(args.trace)
    result = apply_merge(schema, args.members, merged_name=args.name)
    if args.keep_redundant:
        out_schema = result.schema
        removed: list = []
        print(f"merged into {result.info.merged_name} (no removal pass)")
    else:
        simplified = remove_all(result)
        out_schema = simplified.schema
        removed = list(simplified.removed)
        print(
            f"merged into {simplified.info.merged_name}; removed: "
            f"{', '.join(str(r) for r in removed) or 'nothing'}"
        )
    if tracer is not None:
        from repro.obs.trace import TraceEvent

        tracer.emit(
            TraceEvent(
                event="merge-applied",
                op="merge",
                scheme=result.info.merged_name,
                constraint=f"Merge({', '.join(args.members)})",
                kind="merge-admission",
                rule="Definition 4.1 (Merge) + Definition 4.3 (Remove)",
                outcome="ok",
                rows=len(removed),
                detail=(
                    f"{len(list(out_schema.null_constraints_of(result.info.merged_name)))} "
                    "null constraint(s) on the merged scheme; "
                    f"{len(removed)} constraint(s) removed"
                ),
            )
        )
        _close_tracer(tracer, trace_path)
    if args.explain:
        from repro.obs.explain import (
            explain_null_constraints,
            render_null_constraints,
        )

        print()
        print(
            render_null_constraints(
                explain_null_constraints(out_schema, result.info.merged_name)
            )
        )
        print()
    print(out_schema.describe())
    _write_output(args.output, relational_schema_to_dict(out_schema))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """``plan``: merge every family admitted by the strategy."""
    from repro.core.planner import MergePlanner, MergeStrategy
    from repro.core.script import MigrationScript

    schema = _load_relational(args.schema)
    strategy = MergeStrategy(args.strategy)
    tracer, trace_path = _open_tracer(args.trace)
    planner = MergePlanner(schema, strategy, tracer=tracer)
    if args.explain:
        print(planner.explain_text())
        print()
    try:
        plan = planner.apply()
    finally:
        _close_tracer(tracer, trace_path)
    print(plan.summary())
    _write_output(args.output, relational_schema_to_dict(plan.schema))
    if args.script:
        script = MigrationScript.from_plan(
            plan, description=f"strategy={strategy.value}"
        )
        _write_output(args.script, script.to_dict())
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """``replay``: re-apply a recorded migration script to a schema (and
    optionally migrate a state through it)."""
    from repro.core.script import MigrationScript

    schema = _load_relational(args.schema)
    script = MigrationScript.from_dict(_load_json(args.script))
    replay = script.apply(schema)
    print(
        f"replayed {len(replay.steps)} step(s): "
        f"{len(schema.schemes)} -> {len(replay.schema.schemes)} scheme(s)"
    )
    _write_output(args.output, relational_schema_to_dict(replay.schema))
    if args.state:
        state = state_from_dict(_load_json(args.state), schema)
        migrated = replay.forward.apply(state)
        assert replay.backward.apply(migrated) == state
        print(
            f"migrated {state.total_size()} -> {migrated.total_size()} "
            "tuples; round trip verified"
        )
        _write_output(args.state_output, state_to_dict(migrated))
    return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    """``migrate``: map a state through a merge, verifying the round trip.

    ``--sql`` additionally emits the equivalent SQLite migration script
    (the ``eta`` mapping as ``INSERT ... SELECT`` DDL); ``--db`` applies
    that script to a live SQLite database file holding the source
    schema's deployment.
    """
    from repro.core.merge import merge as apply_merge
    from repro.core.remove import remove_all

    schema = _load_relational(args.schema)
    state = state_from_dict(_load_json(args.state), schema)
    violations = ConsistencyChecker(schema).violations(state)
    if violations:
        raise CliError(
            f"input state is inconsistent ({violations[0]}); fix it first"
        )
    simplified = remove_all(apply_merge(schema, args.members))
    migrated = simplified.forward.apply(state)
    assert simplified.backward.apply(migrated) == state
    print(
        f"migrated {state.total_size()} tuples -> "
        f"{migrated.total_size()} tuples in "
        f"{len(simplified.schema.schemes)} relation(s); round trip verified"
    )
    if args.sql or args.db:
        from repro.backend import SQLiteBackend, generate_migration

        script = generate_migration(schema, simplified)
        if args.sql:
            if args.sql == "-":
                print(script.sql())
            else:
                with open(args.sql, "w") as f:
                    f.write(script.sql() + "\n")
                print(f"wrote migration script to {args.sql}")
        if args.db:
            with SQLiteBackend(args.db) as backend:
                backend.attach(schema)
                backend.migrate(simplified)
                live = backend.state()
            if live != migrated:
                raise CliError(
                    f"live migration of {args.db} diverged from the "
                    "state mapping"
                )
            print(
                f"migrated live database {args.db}; contents match the "
                "eta mapping"
            )
    _write_output(args.output, state_to_dict(migrated))
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """``compile``: generate DDL and optionally execute it on SQLite."""
    from repro.ddl.generate import generate_ddl

    schema = _load_relational(args.schema)
    dialect = _dialect(args.dialect)
    script = generate_ddl(schema, dialect)
    if args.output and args.output != "-":
        with open(args.output, "w") as f:
            f.write(script.sql() + "\n")
        print(f"wrote {len(script.statements)} statement(s) to {args.output}")
    else:
        print(script.sql())
        print()
    print(f"-- {script.summary()}")
    for warning in script.warnings:
        print(f"-- WARNING: {warning}")
    if args.execute:
        if not dialect.executable:
            raise CliError(
                f"--execute needs an executable dialect (sqlite), "
                f"not {dialect.name}"
            )
        from repro.backend import SQLiteBackend

        with SQLiteBackend(args.execute) as backend:
            backend.deploy(schema)
            counts = {
                scheme.name: backend.count(scheme.name)
                for scheme in schema.schemes
            }
        print(
            f"deployed {len(counts)} table(s) to {args.execute} "
            f"({sum(counts.values())} row(s))"
        )
    return 1 if args.strict and script.warnings else 0


def cmd_translate(args: argparse.Namespace) -> int:
    """``translate``: EER design to relational schema (or Teorey baseline)."""
    from repro.eer.teorey import translate_teorey
    from repro.eer.translate import translate_eer

    eer = _load_eer(args.eer)
    if args.teorey:
        translation = translate_teorey(eer)
        schema = translation.schema
        print(
            "Teorey-style translation "
            f"(folded: {', '.join(translation.folded) or 'nothing'})"
        )
    else:
        schema = translate_eer(eer).schema
    print(schema.describe())
    _write_output(args.output, relational_schema_to_dict(schema))
    return 0


def cmd_structures(args: argparse.Namespace) -> int:
    """``structures``: classify single-relation EER structures (Fig 8)."""
    from repro.eer.patterns import find_amenable_structures

    eer = _load_eer(args.eer)
    structures = find_amenable_structures(eer)
    if not structures:
        print("no single-relation-representable structures found")
        return 0
    for s in structures:
        print(s)
        for reason in s.reasons:
            print(f"  - {reason}")
    return 0


def cmd_ddl(args: argparse.Namespace) -> int:
    """``ddl``: emit the schema definition for one target DBMS."""
    from repro.ddl.generate import generate_ddl

    schema = _load_relational(args.schema)
    script = generate_ddl(schema, _dialect(args.dialect))
    print(script.sql())
    print()
    print(f"-- {script.summary()}")
    for warning in script.warnings:
        print(f"-- WARNING: {warning}")
    return 1 if args.strict and script.warnings else 0


def cmd_init(args: argparse.Namespace) -> int:
    """``init``: write demo JSON files (the paper's university example)
    into a directory, ready for the other commands."""
    import os

    from repro.workloads.university import (
        university_eer,
        university_relational,
        university_state,
    )
    from repro.io import eer_schema_to_dict

    os.makedirs(args.directory, exist_ok=True)
    files = {
        "university.json": relational_schema_to_dict(university_relational()),
        "university_eer.json": eer_schema_to_dict(university_eer()),
        "university_state.json": state_to_dict(
            university_state(n_courses=12, seed=0)
        ),
    }
    for name, data in files.items():
        _write_output(os.path.join(args.directory, name), data)
    print("try:")
    print(f"  python -m repro families {args.directory}/university.json")
    print(
        f"  python -m repro merge {args.directory}/university.json "
        "COURSE OFFER TEACH ASSIST"
    )
    print(f"  python -m repro structures {args.directory}/university_eer.json")
    return 0


def cmd_minimize(args: argparse.Namespace) -> int:
    """``minimize``: drop implied constraints from a schema."""
    from repro.constraints.minimize import minimize_schema

    schema = _load_relational(args.schema)
    minimized = minimize_schema(schema)
    dropped_inds = len(schema.inds) - len(minimized.inds)
    dropped_ncs = len(schema.null_constraints) - len(
        minimized.null_constraints
    )
    print(
        f"dropped {dropped_inds} implied inclusion dependenc(ies) and "
        f"{dropped_ncs} implied null constraint(s)"
    )
    print(minimized.describe())
    _write_output(args.output, relational_schema_to_dict(minimized))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``bench``: run the storage-engine micro-benchmarks."""
    from repro.engine.bench import format_report, run_engine_benchmark

    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        raise CliError(f"--sizes must be comma-separated integers: {args.sizes!r}")
    if not sizes or any(n <= 0 for n in sizes):
        raise CliError("--sizes needs at least one positive integer")
    if args.ops <= 0:
        raise CliError("--ops must be a positive integer")
    report = run_engine_benchmark(
        sizes=sizes, ops_cap=args.ops, wal_path=args.wal
    )
    print(format_report(report))
    _write_output(args.output, report)
    return 0


def resolve_workers(workers: int | None) -> int | None:
    """The effective ``serve --workers`` value: ``None`` (flag absent)
    keeps the plain single-process server, ``0`` means one worker per
    detected core, and an explicit positive count is taken as is."""
    if workers is None:
        return None
    if workers < 0:
        raise CliError("--workers must be non-negative")
    if workers == 0:
        import os

        return os.cpu_count() or 1
    return workers


def _parse_target(target: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) as a connectable address."""
    host, _, port_text = target.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise CliError(f"target must be HOST:PORT, got {target!r}")
    return host or "127.0.0.1", port


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the JSON-lines TCP server until SIGTERM/SIGINT,
    then drain gracefully (finish in-flight requests, final group
    commit, checkpoint, close the WAL)."""
    import asyncio
    import os

    from repro.engine.database import Database
    from repro.engine.recovery import RecoveryError, recover_database
    from repro.engine.wal import FileStorage, WalError, WriteAheadLog
    from repro.obs.spans import Span
    from repro.server.server import ServerConfig
    from repro.server.server import serve as serve_async

    schema = _load_relational(args.schema)
    if args.max_batch < 1:
        raise CliError("--max-batch must be at least 1")
    if args.max_delay < 0:
        raise CliError("--max-delay must be non-negative")
    if not 0.0 <= args.span_sample <= 1.0:
        raise CliError("--span-sample must be between 0 and 1")
    if args.slow_ms is not None and args.span_sink is None:
        raise CliError("--slow-ms requires --span-sink")
    workers = resolve_workers(args.workers)
    if workers and args.worker_index is None:
        args.workers = workers
        return _serve_fleet(args)
    recover_span = None
    if args.wal is not None:
        storage = FileStorage(
            args.wal, fsync=args.fsync, buffered=True
        )
        if os.path.exists(args.wal) and os.path.getsize(args.wal) > 0:
            # A log with history: recover through it so the server
            # starts from the committed state (and owns the repaired
            # log, still in buffered group-commit mode).  With a span
            # sink, recovery's events land on a root span.
            if args.span_sink is not None:
                recover_span = Span.start("server:recover", kind="server")
            try:
                result = recover_database(
                    schema, storage=storage, tracer=recover_span
                )
            except (RecoveryError, WalError, OSError) as exc:
                raise CliError(f"cannot recover {args.wal}: {exc}")
            db, report = result.database, result.report
            db.set_tracer(None)
            print(
                f"recovered {_tuple_count(db)} tuple(s) from {args.wal} "
                f"(replay {report.replay_s:.2f}s, "
                f"verify {report.verify_s:.2f}s)"
            )
        else:
            db = Database(schema, wal=WriteAheadLog(storage))
    else:
        db = Database(schema)
        print("warning: no --wal; state is not durable", file=sys.stderr)
    sockets = []
    shard = None
    if args.worker_index is not None:
        # Worker mode: serve the supervisor's pre-bound, fd-passed
        # sockets as one shard of the fleet.
        import socket as socket_module

        from repro.server.participant import ShardInfo

        if (
            args.listen_fd is None
            or args.shared_fd is None
            or args.worker_ports is None
            or args.shared_port is None
            or not args.workers
        ):
            raise CliError(
                "worker mode is spawned by the fleet supervisor; "
                "use --workers N instead"
            )
        ports = [int(p) for p in args.worker_ports.split(",")]
        sockets = [
            socket_module.socket(fileno=args.listen_fd),
            socket_module.socket(fileno=args.shared_fd),
        ]
        shard = ShardInfo(
            worker_id=args.worker_index,
            n_shards=args.workers,
            host=args.host,
            ports=ports,
            shared_port=args.shared_port,
        )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        max_batch=args.max_batch,
        max_delay=args.max_delay,
        checkpoint_on_drain=not args.no_checkpoint,
        metrics_port=args.metrics_port,
        sockets=sockets,
        shard=shard,
        prepare_timeout=args.prepare_timeout,
        replicate_from=args.replicate_from,
        span_sink=args.span_sink,
        span_sample=args.span_sample,
        slow_ms=args.slow_ms,
    )
    server = asyncio.run(serve_async(db, config, recover_span=recover_span))
    snap = db.stats.snapshot()
    print(
        f"drained: {server.sessions_opened} session(s), "
        f"{server.service.requests_served} request(s), "
        f"{snap['wal_group_commits']} group commit(s) covering "
        f"{snap['wal_batched_records']} record(s)"
    )
    # The machine-readable drain summary: one JSON object on stderr, so
    # scripts assert on exact counts without parsing the line above.
    from repro.server.server import drain_summary

    print(json.dumps(drain_summary(server), sort_keys=True), file=sys.stderr)
    if server.drain_error is not None:
        print(f"warning: drain error: {server.drain_error}", file=sys.stderr)
        return 1
    return 0


def _serve_fleet(args: argparse.Namespace) -> int:
    """``serve --workers N``: supervise a sharded fleet of worker
    processes (see :mod:`repro.server.supervisor`)."""
    from repro.server.supervisor import Supervisor

    if args.metrics_port is not None:
        raise CliError(
            "--metrics-port is not supported with --workers; scrape "
            "per-worker stats through the 'stats' verb (repro monitor "
            "aggregates them)"
        )
    worker_args = [
        args.schema,
        "--max-connections",
        str(args.max_connections),
        "--max-batch",
        str(args.max_batch),
        "--max-delay",
        str(args.max_delay),
        "--prepare-timeout",
        str(args.prepare_timeout),
    ]
    if args.fsync:
        worker_args.append("--fsync")
    if args.no_checkpoint:
        worker_args.append("--no-checkpoint")
    # Span flags forward to every worker; the sink path itself derives
    # per worker (FILE.w<i>, like the WAL), handled by the supervisor.
    if args.span_sample != 1.0:
        worker_args += ["--span-sample", str(args.span_sample)]
    if args.slow_ms is not None:
        worker_args += ["--slow-ms", str(args.slow_ms)]
    replicate_from = None
    if args.replicate_from:
        replicate_from = _fleet_replication_targets(
            args.replicate_from, args.workers
        )
    supervisor = Supervisor(
        workers=args.workers,
        host=args.host,
        port=args.port,
        worker_args=worker_args,
        wal=args.wal,
        replicate_from=replicate_from,
        span_sink=args.span_sink,
    )
    if args.wal is None:
        print(
            "warning: no --wal; no shard's state is durable",
            file=sys.stderr,
        )
    supervisor.start()
    return supervisor.run_forever()


def _fleet_replication_targets(target: str, workers: int) -> list[str]:
    """Per-worker ``HOST:PORT`` targets for a replica fleet: ask the
    primary fleet for its topology and pair shards index for index."""
    from repro.client import Client

    host, port = _parse_target(target)
    try:
        with Client(host=host, port=port, timeout=30.0) as client:
            topo = client.call("topology")
    except OSError as exc:
        raise CliError(f"cannot reach primary {target}: {exc}")
    primary_workers = int(topo.get("workers", 1) or 1)
    if primary_workers != workers:
        raise CliError(
            f"replica fleet has {workers} worker(s) but the primary at "
            f"{target} has {primary_workers}; shard counts must match so "
            "each replica shard mirrors exactly one primary shard"
        )
    ports = [int(p) for p in topo.get("ports") or ()]
    primary_host = str(topo.get("host") or host)
    if not ports:
        # A plain single-process primary: one worker, one address.
        return [f"{host}:{port}"]
    return [f"{primary_host}:{p}" for p in ports]


def cmd_promote(args: argparse.Namespace) -> int:
    """``promote``: turn a replica (or every shard of a replica fleet)
    into a read-write primary."""
    from repro.client import Client

    host, port = _parse_target(args.target)
    try:
        with Client(host=host, port=port, timeout=args.timeout) as client:
            topo = client.call("topology")
            workers = int(topo.get("workers", 1) or 1)
            ports = [int(p) for p in topo.get("ports") or ()]
            if workers <= 1 or not ports:
                result = client.call("promote")
                print(
                    f"promoted: {result['was']} -> {result['role']} "
                    f"(applied lsn {result['applied_lsn']})"
                )
                return 0
        for index, worker_port in enumerate(ports):
            with Client(
                host=host, port=worker_port, timeout=args.timeout
            ) as client:
                result = client.call("promote")
            print(
                f"worker {index}: {result['was']} -> {result['role']} "
                f"(applied lsn {result['applied_lsn']})"
            )
    except OSError as exc:
        raise CliError(f"cannot reach {args.target}: {exc}")
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    """``advise``: ask a running server's merge advisor for the best
    workload-backed merge; ``--apply`` executes it online (one WAL
    transaction on the server's single-writer path)."""
    from repro.client import Client

    host, port = _parse_target(args.target)
    try:
        with Client(host=host, port=port, timeout=args.timeout) as client:
            report = client.advise(strategy=args.strategy)
            if args.json:
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                print(report["explain_text"])
                workload = report["workload"]
                print(
                    f"observed: {workload['joins_observed']} IND join(s), "
                    f"{workload['mutations_observed']} mutation(s)"
                )
                recommendation = report["recommendation"]
                if recommendation is None:
                    print(
                        "recommendation: none (no admissible family pays "
                        "for itself on the observed workload)"
                    )
                else:
                    print(
                        "recommendation: merge "
                        f"{{{', '.join(recommendation['members'])}}} "
                        f"around {recommendation['key_relation']}"
                    )
            if not args.apply:
                return 0
            recommendation = report["recommendation"]
            if recommendation is None:
                raise CliError(
                    "nothing to apply: the advisor has no recommendation"
                )
            result = client.apply_merge(
                members=recommendation["members"],
                key_relation=recommendation["key_relation"],
            )
            removed = sum(len(r) for r in result["removed"])
            print(
                f"applied: {result['merged_name']} <- "
                f"{{{', '.join(result['members'])}}} "
                f"(removed {removed} attr(s)); "
                f"schema now has {len(result['schemes'])} scheme(s)"
            )
    except OSError as exc:
        raise CliError(f"cannot reach {args.target}: {exc}")
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """``monitor``: poll a running server's ``stats`` verb and repaint
    a terminal dashboard (throughput, per-verb latency, violations by
    paper rule, queue/batch gauges) in place.

    Pointed at a sharded fleet's public port, it discovers the workers
    via the ``topology`` verb, polls every worker's direct port, and
    renders the aggregated fleet dashboard instead (a row per worker
    plus a fleet totals row).
    """
    import time

    from repro.client import Client
    from repro.obs.monitor import (
        CLEAR,
        render_dashboard,
        render_fleet_dashboard,
    )

    host, _, port_text = args.target.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise CliError(f"target must be HOST:PORT, got {args.target!r}")
    host = host or "127.0.0.1"
    if args.interval <= 0:
        raise CliError("--interval must be positive")
    count = 1 if args.once else args.count
    title = f"repro monitor {host}:{port}"

    def paint(frame: str) -> None:
        if not args.no_clear:
            sys.stdout.write(CLEAR)
        sys.stdout.write(frame)
        sys.stdout.flush()

    try:
        with Client(host=host, port=port, timeout=30) as client:
            try:
                topo = client.call("topology")
            except Exception:
                topo = {}  # pre-topology server: plain dashboard
            workers = int(topo.get("workers", 1) or 1)
            ports = [int(p) for p in topo.get("ports", ())]
            if workers > 1 and ports:
                fleet = [
                    Client(host=host, port=p, timeout=30) for p in ports
                ]
                try:
                    prev_snaps = None
                    frames = 0
                    while True:
                        snaps = [c.call("stats") for c in fleet]
                        paint(
                            render_fleet_dashboard(
                                snaps, prev_snaps, args.interval, title=title
                            )
                        )
                        frames += 1
                        prev_snaps = snaps
                        if count and frames >= count:
                            return 0
                        time.sleep(args.interval)
                finally:
                    for c in fleet:
                        c.close()
            prev = None
            frames = 0
            while True:
                cur = client.call("stats")
                paint(render_dashboard(cur, prev, args.interval, title=title))
                frames += 1
                prev = cur
                if count and frames >= count:
                    return 0
                time.sleep(args.interval)
    except (ConnectionError, OSError) as exc:
        raise CliError(f"cannot reach {host}:{port}: {exc}")
    except KeyboardInterrupt:
        return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: reassemble distributed request traces from per-worker
    span JSONL files (or live via the ``spans`` verb) and render ASCII
    waterfalls with the critical path and per-kind time breakdown."""
    import os

    from repro.obs.spans import assemble_traces, read_span_lines, render_trace

    spans: list[dict] = []
    for source in args.sources:
        if os.path.exists(source):
            try:
                with open(source) as f:
                    spans.extend(read_span_lines(f))
            except OSError as exc:
                raise CliError(f"cannot read {source}: {exc}")
        else:
            spans.extend(_live_spans(source, args.timeout))
    if not spans:
        print("no spans collected")
        return 1
    traces = assemble_traces(spans)

    def span_window(members: list[dict]) -> float:
        start = min(s.get("start_s", 0.0) for s in members)
        end = max(s.get("end_s", s.get("start_s", 0.0)) for s in members)
        return end - start

    ordered = sorted(
        traces.items(), key=lambda kv: span_window(kv[1]), reverse=True
    )
    print(
        f"{len(spans)} span(s) in {len(traces)} trace(s) from "
        f"{len(args.sources)} source(s)"
    )
    if args.list:
        for trace_id, members in ordered:
            processes = {s.get("process", "?") for s in members}
            print(
                f"  {trace_id}  {len(members):>3} span(s)  "
                f"{len(processes)} process(es)  "
                f"{span_window(members) * 1000:.3f} ms"
            )
        return 0
    if args.trace_id is not None:
        members = traces.get(args.trace_id)
        if members is None:
            raise CliError(
                f"no trace {args.trace_id!r} among the collected spans "
                "(try --list)"
            )
        selected = [(args.trace_id, members)]
    else:
        selected = ordered[: max(1, args.slowest)]
    for trace_id, members in selected:
        print()
        print(render_trace(trace_id, members, width=args.width))
    return 0


def _live_spans(target: str, timeout: float) -> list[dict]:
    """Collect the span ring buffer of a live server -- or of every
    worker, when ``target`` is a fleet's shared port -- via the
    ``spans`` verb."""
    from repro.client import Client

    host, port = _parse_target(target)
    collected: list[dict] = []
    try:
        with Client(host=host, port=port, timeout=timeout) as client:
            try:
                topo = client.call("topology")
            except Exception:
                topo = {}
            ports = [int(p) for p in topo.get("ports") or ()]
            if int(topo.get("workers", 1) or 1) > 1 and ports:
                for worker_port in ports:
                    with Client(
                        host=host, port=worker_port, timeout=timeout
                    ) as worker:
                        collected.extend(worker.spans()["spans"])
            else:
                collected.extend(client.spans()["spans"])
    except OSError as exc:
        raise CliError(f"cannot reach {target}: {exc}")
    return collected


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "BCNF-preserving relation merging (Markowitz, ICDE 1992)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print a schema")
    p.add_argument("schema")
    p.set_defaults(fn=cmd_describe)

    trace_kwargs = dict(
        nargs="?",
        const="-",
        metavar="FILE",
        help="write a JSONL decision trace (default: stdout)",
    )

    p = sub.add_parser("check", help="check a state against a schema")
    p.add_argument("schema")
    p.add_argument("state", nargs="?")
    p.add_argument(
        "--wal",
        metavar="LOG",
        help="check the state recovered from this write-ahead log "
        "instead of a state file",
    )
    p.add_argument("--trace", **trace_kwargs)
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the checks the checker will run, with paper rules",
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "explain",
        help="show enforcement plans or merge reasoning",
    )
    p.add_argument("schema")
    p.add_argument(
        "--scheme",
        action="append",
        help="explain only this scheme (repeatable; default: all)",
    )
    p.add_argument(
        "--op",
        choices=["insert", "update", "delete"],
        help="explain only this mutation kind (default: all)",
    )
    p.add_argument(
        "--plan",
        action="store_true",
        help="explain the merge planner's decisions instead",
    )
    p.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="aggressive",
        help="strategy for --plan",
    )
    p.add_argument("-o", "--output", help="write the explanation JSON")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("families", help="list mergeable families")
    p.add_argument("schema")
    p.set_defaults(fn=cmd_families)

    p = sub.add_parser("merge", help="merge named relation-schemes")
    p.add_argument("schema")
    p.add_argument("members", nargs="+")
    p.add_argument("--name", help="name for the merged scheme")
    p.add_argument(
        "--keep-redundant",
        action="store_true",
        help="skip the Remove pass (Definition 4.3)",
    )
    p.add_argument("-o", "--output", help="write the result schema JSON")
    p.add_argument("--trace", **trace_kwargs)
    p.add_argument(
        "--explain",
        action="store_true",
        help="print null-constraint provenance of the merged scheme",
    )
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser("plan", help="merge every admissible family")
    p.add_argument("schema")
    p.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="aggressive",
    )
    p.add_argument("-o", "--output")
    p.add_argument(
        "--script", help="write a replayable migration script JSON"
    )
    p.add_argument("--trace", **trace_kwargs)
    p.add_argument(
        "--explain",
        action="store_true",
        help="print every family's admission decision and rule",
    )
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("replay", help="re-apply a recorded migration script")
    p.add_argument("script")
    p.add_argument("schema")
    p.add_argument("--state", help="also migrate this state through the script")
    p.add_argument("-o", "--output", help="write the result schema JSON")
    p.add_argument("--state-output", help="write the migrated state JSON")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("migrate", help="map a state through a merge")
    p.add_argument("schema")
    p.add_argument("state")
    p.add_argument("--members", nargs="+", required=True)
    p.add_argument("-o", "--output")
    p.add_argument(
        "--sql",
        help="write the SQLite migration script ('-' for stdout)",
    )
    p.add_argument(
        "--db",
        help="apply the migration to this live SQLite database file",
    )
    p.set_defaults(fn=cmd_migrate)

    p = sub.add_parser("translate", help="EER design -> relational schema")
    p.add_argument("eer")
    p.add_argument(
        "--teorey",
        action="store_true",
        help="use the folding baseline instead of the BCNF translation",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser(
        "structures", help="classify single-relation EER structures"
    )
    p.add_argument("eer")
    p.set_defaults(fn=cmd_structures)

    p = sub.add_parser("ddl", help="generate DDL for a target DBMS")
    p.add_argument("schema")
    p.add_argument("--dialect", choices=sorted(DIALECTS), required=True)
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when constraints are unmaintainable",
    )
    p.set_defaults(fn=cmd_ddl)

    p = sub.add_parser(
        "compile",
        help="generate DDL and optionally execute it on SQLite",
    )
    p.add_argument("schema")
    p.add_argument("--dialect", choices=sorted(DIALECTS), default="sqlite")
    p.add_argument(
        "--execute",
        metavar="DB",
        help="deploy the schema into this SQLite database file",
    )
    p.add_argument("-o", "--output", help="write the DDL script to a file")
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when constraints are unmaintainable",
    )
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("init", help="write demo JSON files to a directory")
    p.add_argument("directory")
    p.set_defaults(fn=cmd_init)

    p = sub.add_parser("minimize", help="drop implied constraints")
    p.add_argument("schema")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_minimize)

    p = sub.add_parser("bench", help="run the engine micro-benchmarks")
    p.add_argument(
        "--sizes",
        default="1000,10000,50000",
        help="comma-separated course counts (default: 1000,10000,50000)",
    )
    p.add_argument(
        "--ops",
        type=int,
        default=2000,
        help="max operations per measurement (default: 2000)",
    )
    p.add_argument("-o", "--output", help="write the JSON report here")
    p.add_argument(
        "--wal",
        metavar="LOG",
        help="also measure WAL-on insert throughput and checkpoint "
        "latency, logging to this path",
    )
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "recover", help="rebuild the committed state from a write-ahead log"
    )
    p.add_argument("schema")
    p.add_argument("--wal", metavar="LOG", required=True)
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the consistency re-check of the recovered state",
    )
    p.add_argument(
        "--checkpoint",
        action="store_true",
        help="compact the recovered log into a snapshot",
    )
    p.add_argument("-o", "--output", help="write the recovered state JSON")
    p.add_argument("--report", help="write the recovery report JSON")
    p.add_argument("--trace", **trace_kwargs)
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser(
        "serve", help="serve a database over the JSON-lines TCP protocol"
    )
    p.add_argument("schema")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default 0: pick a free one; the bound port "
        "is printed in the readiness line)",
    )
    p.add_argument(
        "--wal",
        metavar="LOG",
        help="write-ahead log path; an existing log is recovered first "
        "(without one, state is not durable)",
    )
    p.add_argument(
        "--fsync",
        action="store_true",
        help="fsync at every group-commit barrier (power-loss "
        "durability; default flushes to the OS only)",
    )
    p.add_argument(
        "--max-connections",
        type=int,
        default=64,
        help="reject connections beyond this many (default: 64)",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="most mutations one group commit may cover (default: 64)",
    )
    p.add_argument(
        "--max-delay",
        type=float,
        default=0.002,
        help="longest a forming group waits for sessions that are "
        "writing to join it; idle and read-only connections never make "
        "it wait (default: 0.002; 0 never waits)",
    )
    p.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="skip the WAL checkpoint during graceful drain",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="serve /metrics, /healthz and /readyz over HTTP on this "
        "port (0: pick a free one, printed in the 'metrics on' line; "
        "default: disabled)",
    )
    p.add_argument(
        "--span-sink",
        metavar="FILE",
        help="record request spans as JSON lines to FILE (fleet "
        "workers write FILE.w<i>); also enables the 'spans' verb and "
        "'repro trace'",
    )
    p.add_argument(
        "--span-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="head-sampling rate for new traces, 0..1 (default: 1.0; "
        "requests arriving with a sampled span context are always "
        "traced)",
    )
    p.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log a waterfall of any request slower than MS "
        "milliseconds to stderr (requires --span-sink)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run a sharded fleet of this many single-writer worker "
        "processes (rows are hash-partitioned by primary key).  "
        "--port is the fleet's shared public port; each worker also "
        "gets a direct port, printed in the 'worker' lines.  0 means "
        "one worker per detected core.  Default (flag absent): one "
        "plain single-process server",
    )
    p.add_argument(
        "--replicate-from",
        metavar="HOST:PORT",
        help="run as a read-only replica of the primary at this "
        "address: catch up from its checkpoint, then tail its WAL "
        "(with --workers, the address of the primary fleet; shard "
        "counts must match).  Promote with 'repro promote'",
    )
    p.add_argument(
        "--prepare-timeout",
        type=float,
        default=30.0,
        help="seconds a worker holds a cross-shard batch prepare before "
        "aborting it unilaterally (default: 30)",
    )
    # Worker-mode flags, set by the fleet supervisor when it spawns its
    # workers -- not for direct use.
    p.add_argument("--worker-index", type=int, help=argparse.SUPPRESS)
    p.add_argument("--worker-ports", help=argparse.SUPPRESS)
    p.add_argument("--shared-port", type=int, help=argparse.SUPPRESS)
    p.add_argument("--listen-fd", type=int, help=argparse.SUPPRESS)
    p.add_argument("--shared-fd", type=int, help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "promote",
        help="turn a replica (or replica fleet) into the primary",
    )
    p.add_argument("target", metavar="HOST:PORT")
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="seconds to wait per connection (default: 30)",
    )
    p.set_defaults(fn=cmd_promote)

    p = sub.add_parser(
        "advise",
        help="workload-driven merge recommendation from a live server",
    )
    p.add_argument("target", metavar="HOST:PORT")
    p.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,
        help=(
            "admissibility filter (default: the advisor's key-based "
            "strategy, Proposition 5.1)"
        ),
    )
    p.add_argument(
        "--apply",
        action="store_true",
        help="apply the recommended merge online (one WAL transaction)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the full advisory report as JSON",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="seconds to wait per connection (default: 30)",
    )
    p.set_defaults(fn=cmd_advise)

    p = sub.add_parser(
        "monitor", help="live dashboard over a running server"
    )
    p.add_argument("target", metavar="HOST:PORT")
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default: 2.0)",
    )
    p.add_argument(
        "-n",
        "--count",
        type=int,
        default=0,
        help="refresh this many times then exit (default 0: forever)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (same as -n 1)",
    )
    p.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of repainting in place",
    )
    p.set_defaults(fn=cmd_monitor)

    p = sub.add_parser(
        "trace",
        help="reassemble request traces from span files or a live "
        "server and render waterfalls",
    )
    p.add_argument(
        "sources",
        nargs="+",
        metavar="SOURCE",
        help="span JSONL files (as written by serve --span-sink, one "
        "per worker) and/or HOST:PORT of a live server to poll via "
        "the 'spans' verb",
    )
    p.add_argument(
        "--trace-id",
        default=None,
        help="render this trace only (default: the slowest)",
    )
    p.add_argument(
        "--slowest",
        type=int,
        default=1,
        metavar="N",
        help="render the N slowest traces (default: 1)",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="list trace ids with span/process counts instead of "
        "rendering",
    )
    p.add_argument(
        "--width",
        type=int,
        default=48,
        metavar="COLS",
        help="waterfall bar width in columns (default: 48)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="seconds to wait per connection (default: 30)",
    )
    p.set_defaults(fn=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
