"""A small constraint-enforcing in-memory storage engine.

The paper motivates merging with access performance: "decreasing the
number of relations ... reduces the need for joining relations, and
usually results in a better access performance" (Section 1).  The paper
itself reports no measurements; this engine is the reproduction's
measurement substrate:

* :mod:`repro.engine.database` -- a mutable database over one relational
  schema, enforcing key dependencies, inclusion dependencies and null
  constraints on every insert/update/delete (the behaviours Section 5.1
  attributes to triggers/rules/validprocs);
* :mod:`repro.engine.query` -- point lookups and join navigation with
  operation counting;
* :mod:`repro.engine.stats` -- the counters the join-reduction benchmarks
  report;
* :mod:`repro.engine.plans` -- compiled per-scheme access plans (key /
  reference / null-group extractors) shared by the hot paths;
* :mod:`repro.engine.oracle` -- a scan-based reference implementation,
  the differential-testing oracle and benchmark baseline;
* :mod:`repro.engine.bench` -- the ops/sec harness behind
  ``benchmarks/bench_engine.py`` and ``python -m repro bench``;
* :mod:`repro.engine.wal` / :mod:`repro.engine.recovery` -- the
  durability subsystem: a checksummed write-ahead log, checkpointing,
  and crash recovery that restores exactly the committed consistent
  state (Definition 2.1);
* :mod:`repro.engine.faults` -- deterministic storage fault injection
  for the crash-point test matrix.
"""

from repro import lazy_exports

#: Each public name and the module that defines it.  Names resolve on
#: first use (:func:`__getattr__`), so importing one engine module --
#: as ``serve`` does -- loads neither the oracle nor the fault
#: injector.
_EXPORTS = {
    "ConstraintViolationError": "repro.engine.database",
    "Database": "repro.engine.database",
    "OracleDatabase": "repro.engine.oracle",
    "QueryEngine": "repro.engine.query",
    "EngineStats": "repro.engine.stats",
    "MergedViewResolver": "repro.engine.views",
    "SchemeAccessPlan": "repro.engine.plans",
    "compile_schema": "repro.engine.plans",
    "WriteAheadLog": "repro.engine.wal",
    "WalError": "repro.engine.wal",
    "Storage": "repro.engine.wal",
    "FileStorage": "repro.engine.wal",
    "MemoryStorage": "repro.engine.wal",
    "parse_wal": "repro.engine.wal",
    "FaultyStorage": "repro.engine.faults",
    "InjectedFault": "repro.engine.faults",
    "recover_database": "repro.engine.recovery",
    "RecoveryError": "repro.engine.recovery",
    "RecoveryReport": "repro.engine.recovery",
    "RecoveryResult": "repro.engine.recovery",
}

__all__ = list(_EXPORTS)


__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
