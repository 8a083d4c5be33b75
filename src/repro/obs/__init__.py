"""Decision-provenance observability for the enforcement engine.

The paper's constraint vocabulary is generated mechanically -- every
null constraint a merge produces has a provenance in one step of
Definition 4.1, every referential-integrity rejection traces back to a
Section 2 inclusion dependency, and the two Section 5 propositions
decide which merges a declarative DBMS can maintain.  This package
makes that provenance visible at run time:

* :mod:`repro.obs.trace` -- structured :class:`TraceEvent` records with
  ring-buffer and JSONL sinks; the engine, the consistency checker and
  the merge planner emit one event per enforcement decision;
* :mod:`repro.obs.rules` -- the constraint-kind classifier and the
  paper-rule labels (Definition 4.1 steps 3(a)-3(e)/4(b)-4(c),
  Section 3 constraint forms, Section 5.1 maintenance rules,
  Propositions 5.1/5.2) attached to every event and violation;
* :mod:`repro.obs.histogram` -- a fixed log-bucket latency histogram
  (no dependencies) behind ``EngineStats.latencies`` and the bench
  report's p50/p99 columns;
* :mod:`repro.obs.explain` -- EXPLAIN renderers: the compiled access
  plan behind each mutation kind, the provenance of merged null
  constraints, and the planner's admission decisions, as structured
  dicts plus human-readable text;
* :mod:`repro.obs.metrics` -- a dependency-free Counter/Gauge/Histogram
  registry with labels and Prometheus text exposition, backing the
  server's ``/metrics`` endpoint and the ``stats`` protocol verb;
* :mod:`repro.obs.monitor` -- the ``python -m repro monitor`` terminal
  dashboard renderer, fed by the ``stats`` verb;
* :mod:`repro.obs.spans` -- distributed request spans with a
  W3C-traceparent-style wire context, the per-process
  :class:`~repro.obs.spans.SpanSink` (ring buffer + JSONL), and the
  trace reassembly/waterfall rendering behind ``repro trace``; a
  :class:`~repro.obs.spans.Span` is itself a :class:`Tracer`, so a
  served request's engine events land on its span.
"""

from repro.obs.histogram import LatencyHistogram
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.rules import classify_null_constraint, paper_rule, rule_for
from repro.obs.spans import (
    Span,
    SpanSink,
    assemble_traces,
    critical_path,
    decode_context,
    encode_context,
    render_trace,
    render_waterfall,
)
from repro.obs.trace import JsonlTracer, RingBufferTracer, TraceEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTracer",
    "LatencyHistogram",
    "MetricsRegistry",
    "RingBufferTracer",
    "Span",
    "SpanSink",
    "TraceEvent",
    "Tracer",
    "assemble_traces",
    "classify_null_constraint",
    "critical_path",
    "decode_context",
    "encode_context",
    "paper_rule",
    "render_trace",
    "render_waterfall",
    "rule_for",
]
