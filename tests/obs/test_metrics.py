"""The metrics registry and its Prometheus text exposition.

The conformance test parses rendered output line by line against the
text-format rules that matter for a scraper: ``# HELP``/``# TYPE``
headers precede samples, histogram buckets are cumulative with a final
``+Inf`` equal to ``_count``, ``_sum`` is present, label values are
escaped, and counters only go up.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.obs.histogram import LatencyHistogram
from repro.obs.metrics import (
    MetricsRegistry,
    escape_label_value,
    format_labels,
)

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[0-9.eE+\-]+|\+Inf)$"
)


def test_counter_labels_and_render():
    reg = MetricsRegistry()
    c = reg.counter("reqs_total", "Requests.", labelnames=("verb",))
    c.labels(verb="insert").inc()
    c.labels(verb="insert").inc(2)
    c.labels(verb="get").inc()
    assert c.value(verb="insert") == 3
    text = reg.render()
    assert "# HELP reqs_total Requests." in text
    assert "# TYPE reqs_total counter" in text
    assert 'reqs_total{verb="insert"} 3' in text
    assert 'reqs_total{verb="get"} 1' in text
    assert text.endswith("\n")


def test_counter_value_reads_without_adding_a_sample():
    reg = MetricsRegistry()
    c = reg.counter("reqs_total", "Requests.", labelnames=("verb",))
    u = reg.counter("u_total", "Unlabeled.")
    assert c.value(verb="delete") == 0
    assert u.value() == 0
    text = reg.render()
    assert "reqs_total{" not in text
    assert "u_total 0" not in text


def test_counter_rejects_decrease_and_label_mismatch():
    reg = MetricsRegistry()
    c = reg.counter("c_total", "c", labelnames=("a",))
    with pytest.raises(ValueError):
        c.labels(a="x").inc(-1)
    with pytest.raises(ValueError):
        c.labels(wrong="x")
    with pytest.raises(ValueError):
        c.inc()  # labeled family has no unlabeled child


def test_gauge_set_inc_dec_and_callback():
    reg = MetricsRegistry()
    g = reg.gauge("depth", "Queue depth.")
    g.set(5)
    g.inc()
    g.dec(2)
    assert g.current() == 4
    live = reg.gauge("live", "Live value.")
    backing = {"v": 7}
    live.set_callback(lambda: backing["v"])
    assert live.current() == 7
    backing["v"] = 9
    text = reg.render()
    assert "depth 4" in text
    assert "live 9" in text  # callback read at render time


def test_registry_name_uniqueness():
    reg = MetricsRegistry()
    c = reg.counter("x_total", "x")
    assert reg.counter("x_total", "x") is c  # same type/labels: shared
    with pytest.raises(ValueError):
        reg.gauge("x_total", "x")
    with pytest.raises(ValueError):
        reg.counter("x_total", "x", labelnames=("a",))


def test_label_escaping():
    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
    assert format_labels({"rule": 'Sec "5.1"'}) == '{rule="Sec \\"5.1\\""}'
    reg = MetricsRegistry()
    c = reg.counter("v_total", "v", labelnames=("rule",))
    c.labels(rule='quote " and \\ slash').inc()
    assert 'rule="quote \\" and \\\\ slash"' in reg.render()


def _parse_histogram(text: str, name: str) -> dict:
    """Bucket/sum/count samples of one histogram family, parsed
    line-by-line with the sample grammar."""
    buckets: list[tuple[float, int]] = []
    out: dict = {"buckets": buckets}
    for line in text.splitlines():
        if line.startswith("#") or not line.startswith(name):
            continue
        m = SAMPLE_RE.match(line)
        assert m, f"unparseable sample line: {line!r}"
        if m.group("name") == f"{name}_bucket":
            le = re.search(r'le="([^"]+)"', m.group("labels"))
            assert le, f"bucket without le: {line!r}"
            bound = math.inf if le.group(1) == "+Inf" else float(le.group(1))
            buckets.append((bound, int(m.group("value"))))
        elif m.group("name") == f"{name}_sum":
            out["sum"] = float(m.group("value"))
        elif m.group("name") == f"{name}_count":
            out["count"] = int(m.group("value"))
    return out


def test_histogram_exposition_conformance():
    reg = MetricsRegistry()
    h = reg.histogram("lat_seconds", "Latency.", labelnames=("verb",))
    child = h.labels(verb="insert")
    for us in (1, 3, 9, 100, 4000):
        child.observe(us * 1e-6)
    parsed = _parse_histogram(reg.render(), "lat_seconds")
    assert parsed["count"] == 5
    assert parsed["sum"] == pytest.approx(4113e-6, rel=1e-6)
    bounds = [b for b, _ in parsed["buckets"]]
    counts = [c for _, c in parsed["buckets"]]
    # Cumulative and monotone; +Inf last and equal to _count.
    assert bounds == sorted(bounds)
    assert counts == sorted(counts)
    assert bounds[-1] == math.inf
    assert counts[-1] == parsed["count"]


def test_latency_histogram_to_prometheus_conformance():
    hist = LatencyHistogram()
    for us in (1, 2, 2, 50, 1000):
        hist.record(us * 1e-6)
    text = hist.to_prometheus("op_seconds", labels={"op": "insert"})
    assert text.endswith("\n")
    parsed = _parse_histogram(text, "op_seconds")
    assert parsed["count"] == 5
    assert parsed["sum"] == pytest.approx(1055e-6, rel=1e-6)
    counts = [c for _, c in parsed["buckets"]]
    assert counts == sorted(counts)
    assert parsed["buckets"][-1] == (math.inf, 5)
    # Cumulative semantics against the histogram's own buckets.
    for bound, cum in parsed["buckets"][:-1]:
        assert cum == sum(
            c
            for i, c in enumerate(hist.counts)
            if LatencyHistogram.bucket_bound(i) <= bound
        )
    # Every line carries the caller's label.
    for line in text.splitlines():
        assert 'op="insert"' in line


def test_fixed_bucket_histogram():
    reg = MetricsRegistry()
    h = reg.histogram(
        "batch_size", "Batch sizes.", buckets=(1, 2, 4, 8)
    )
    for v in (1, 1, 3, 5, 100):
        h.observe(v)
    parsed = _parse_histogram(reg.render(), "batch_size")
    assert parsed["count"] == 5
    assert parsed["sum"] == pytest.approx(110.0)
    assert dict(parsed["buckets"])[1.0] == 2
    assert dict(parsed["buckets"])[4.0] == 3
    assert parsed["buckets"][-1] == (math.inf, 5)  # overflow lands in +Inf


def test_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("a_total", "a", labelnames=("k",)).labels(k="x").inc(2)
    reg.gauge("g", "g").set(3)
    reg.histogram("h_seconds", "h").observe(0.001)
    snap = reg.snapshot()
    by_name = {f["name"]: f for f in snap}
    assert by_name["a_total"]["type"] == "counter"
    assert by_name["a_total"]["samples"] == [
        {"labels": {"k": "x"}, "value": 2.0}
    ]
    assert by_name["g"]["samples"][0]["value"] == 3.0
    hist_value = by_name["h_seconds"]["samples"][0]["value"]
    assert hist_value["count"] == 1


def test_snapshot_keeps_sub_millisecond_observations():
    """A 0.2 ms observation in seconds must not summarize to 0: the
    fixed-bucket summary keeps significant digits, and the default
    latency histogram reports microseconds."""
    reg = MetricsRegistry()
    fixed = reg.histogram(
        "sync_seconds", "Syncs.", buckets=(0.0001, 0.001, 0.01)
    )
    latency = reg.histogram("wal_sync_seconds", "WAL syncs.")
    for h in (fixed, latency):
        h.observe(0.0002)
    by_name = {f["name"]: f["samples"][0]["value"] for f in reg.snapshot()}
    assert by_name["sync_seconds"]["p50"] == pytest.approx(0.0002)
    assert by_name["sync_seconds"]["sum"] == pytest.approx(0.0002)
    assert by_name["sync_seconds"]["max"] == pytest.approx(0.0002)
    assert 200 <= by_name["wal_sync_seconds"]["p50_us"] <= 256
