"""A dependency-free metrics registry with Prometheus text exposition.

One :class:`MetricsRegistry` holds named metric families --
:class:`Counter`, :class:`Gauge` and :class:`Histogram` -- each of which
fans out into children keyed by label values (``labels(verb="insert")``).
The registry renders the whole set in the Prometheus text exposition
format (``# HELP``/``# TYPE`` headers, escaped label values, cumulative
``le`` histogram buckets ending at ``+Inf`` with ``_sum``/``_count``
lines) and snapshots it as JSON-ready dicts for the ``stats`` protocol
verb and the ``repro monitor`` dashboard.

Histograms reuse the engine's log2-bucket
:class:`~repro.obs.histogram.LatencyHistogram` for timings; a family
constructed with explicit ``buckets`` (e.g. group-commit batch sizes)
uses a fixed-bound cumulative histogram instead, rendered through the
same :func:`render_histogram` so both are spec-conformant.

Gauges may be backed by a callback (:meth:`Gauge.set_callback`) so
live quantities -- queue depth, open connections -- are read at scrape
time and can never drift from the value they mirror.

Everything here is synchronous and allocation-light: recording into a
counter or histogram is a dict lookup and an increment, which is what
lets the server keep the registry always on (its throughput cost is
not measured on its own).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs.histogram import LatencyHistogram

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
    "format_labels",
    "render_histogram",
]


def escape_label_value(value: Any) -> str:
    """A label value escaped for the text exposition format
    (backslash, double quote and newline are the three escapes the
    Prometheus spec defines)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: Mapping[str, Any] | None) -> str:
    """The ``{a="x",b="y"}`` label block (empty string for no labels)."""
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{escape_label_value(value)}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _format_bound(bound: float) -> str:
    """An ``le`` bound rendered compactly (``1e-06``, ``0.000512``)."""
    return f"{bound:.6g}"


def render_histogram(
    name: str,
    labels: Mapping[str, Any] | None,
    cumulative: Iterable[tuple[float, int]],
    total_sum: float,
    count: int,
) -> list[str]:
    """Spec-conformant histogram sample lines: cumulative ``le`` buckets
    (leading empty buckets skipped, saturated tail collapsed into the
    mandatory ``+Inf`` bucket), then ``_sum`` and ``_count``.

    ``cumulative`` yields ``(upper_bound, cumulative_count)`` pairs in
    increasing bound order; the ``le`` label is appended after any
    caller labels so every line of one family shares its prefix.
    """
    base = dict(labels) if labels else {}
    lines: list[str] = []
    for bound, cum in cumulative:
        if cum == 0:
            continue  # leading empty buckets carry no information
        lines.append(
            f"{name}_bucket"
            f"{format_labels({**base, 'le': _format_bound(bound)})} {cum}"
        )
        if cum == count:
            break  # every later bucket only repeats the total
    lines.append(f"{name}_bucket{format_labels({**base, 'le': '+Inf'})} {count}")
    lines.append(f"{name}_sum{format_labels(base)} {total_sum:.9f}")
    lines.append(f"{name}_count{format_labels(base)} {count}")
    return lines


class _FixedBucketHistogram:
    """A cumulative histogram over caller-chosen upper bounds (for
    unit-less quantities like batch sizes, where the latency
    histogram's microsecond buckets would mislabel every value)."""

    __slots__ = ("bounds", "counts", "count", "total", "max_seen")

    def __init__(self, bounds: Sequence[float]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("buckets must be a non-empty increasing sequence")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * len(self.bounds)
        self.count = 0
        self.total = 0.0
        self.max_seen = 0.0

    def record(self, value: float) -> None:
        """Record one observation (values above the last bound land in
        the implicit ``+Inf`` overflow)."""
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        self.count += 1
        self.total += value
        if value > self.max_seen:
            self.max_seen = value

    def cumulative(self) -> Iterable[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` per bound, in order."""
        cum = 0
        for bound, c in zip(self.bounds, self.counts):
            cum += c
            yield bound, cum

    def quantile(self, q: float) -> float:
        """The ``q``-quantile as a bucket upper bound (capped at the
        exact maximum seen); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = 0
        for bound, c in zip(self.bounds, self.counts):
            cum += c
            if cum >= target:
                return min(bound, self.max_seen)
        return self.max_seen

    def to_dict(self) -> dict:
        """A JSON-ready summary in the observed unit, to six significant
        digits -- fixed decimals would read a sub-millisecond value
        observed in seconds as 0."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": _significant(self.total),
            "p50": _significant(self.quantile(0.50)),
            "p99": _significant(self.quantile(0.99)),
            "max": _significant(self.max_seen),
        }


def _significant(value: float, digits: int = 6) -> float:
    """``value`` rounded to ``digits`` significant digits."""
    return float(f"{value:.{digits}g}")


class _Family:
    """Shared machinery of one named metric family: label validation
    and the children map (one child per distinct label-value tuple)."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}

    def _child_values(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[n]) for n in self.labelnames)

    def _make_child(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labels: Any) -> Any:
        """The child for one label-value combination (created on first
        use)."""
        key = self._child_values(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def _default_child(self) -> Any:
        """The single child of an unlabeled family."""
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled by {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    def items(self) -> list[tuple[dict[str, str], Any]]:
        """``(labels_dict, child)`` pairs in first-use order."""
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in self._children.items()
        ]

    def header(self) -> list[str]:
        """The ``# HELP`` / ``# TYPE`` lines of this family."""
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]


class _Value:
    """One numeric child (a counter's or gauge's current value)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class Counter(_Family):
    """A monotonically increasing count, optionally labeled."""

    kind = "counter"

    def _make_child(self) -> _Value:
        return _Value()

    def labels(self, **labels: Any) -> "_CounterChild":
        """The counter child for one label combination."""
        return _CounterChild(super().labels(**labels))

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled counter."""
        self._default_child().inc(amount)

    def value(self, **labels: Any) -> float:
        """The current value under one label combination (0 before its
        first increment; reading adds no sample to the exposition)."""
        cell = self._children.get(self._child_values(labels))
        return cell.value if cell is not None else 0.0

    def render(self) -> list[str]:
        """Exposition sample lines for every child."""
        return [
            f"{self.name}{format_labels(labels)} {_format_number(child.value)}"
            for labels, child in self.items()
        ]

    def snapshot_value(self, child: _Value) -> float:
        """JSON-ready value of one child."""
        return child.value


class _CounterChild:
    """Mutation handle for one counter child."""

    __slots__ = ("_cell",)

    def __init__(self, cell: _Value):
        self._cell = cell

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters only go up)."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self._cell.value += amount

    @property
    def value(self) -> float:
        """The child's current value."""
        return self._cell.value


class Gauge(_Family):
    """A value that can go up and down; optionally callback-backed so
    scrapes read the live quantity."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._callback: Callable[[], float] | None = None

    def _make_child(self) -> _Value:
        return _Value()

    def set(self, value: float) -> None:
        """Set the unlabeled gauge."""
        self._default_child().value = value

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the unlabeled gauge upward."""
        self._default_child().value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the unlabeled gauge downward."""
        self._default_child().value -= amount

    def set_callback(self, fn: Callable[[], float]) -> None:
        """Back the (unlabeled) gauge with ``fn``, evaluated at every
        render/snapshot -- the value can then never drift from the
        quantity it mirrors."""
        if self.labelnames:
            raise ValueError("callback gauges cannot be labeled")
        self._callback = fn

    def current(self) -> float:
        """The unlabeled gauge's value (through the callback if set)."""
        if self._callback is not None:
            return float(self._callback())
        return self._default_child().value

    def render(self) -> list[str]:
        """Exposition sample lines for every child."""
        if self._callback is not None:
            return [f"{self.name} {_format_number(self.current())}"]
        return [
            f"{self.name}{format_labels(labels)} {_format_number(child.value)}"
            for labels, child in self.items()
        ]


class Histogram(_Family):
    """A distribution; latency-shaped by default (log2 microsecond
    buckets via :class:`LatencyHistogram`), or over explicit ``buckets``
    for unit-less quantities."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(buckets) if buckets is not None else None

    def _make_child(self) -> Any:
        if self.buckets is not None:
            return _FixedBucketHistogram(self.buckets)
        return LatencyHistogram()

    def observe(self, value: float) -> None:
        """Record into the unlabeled histogram."""
        self._default_child().observe(value)

    def labels(self, **labels: Any) -> Any:
        """The histogram child (it records via ``.record(value)``, and
        also answers ``.observe(value)`` through this wrapper)."""
        return _HistogramChild(super().labels(**labels))

    def render(self) -> list[str]:
        """Exposition sample lines (buckets, sum, count) per child."""
        lines: list[str] = []
        for labels, child in self.items():
            lines.extend(
                render_histogram(
                    self.name,
                    labels,
                    child.cumulative(),
                    child.total,
                    child.count,
                )
            )
        return lines


class _HistogramChild:
    """Mutation handle for one histogram child."""

    __slots__ = ("_hist",)

    def __init__(self, hist: Any):
        self._hist = hist

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._hist.record(value)

    @property
    def count(self) -> int:
        """Observations recorded so far."""
        return self._hist.count


def _format_number(value: float) -> str:
    """Integers render without a trailing ``.0``; everything else as-is."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """A named collection of metric families with one exposition.

    Families register in creation order and names are unique; asking
    for an existing name returns the existing family when the type and
    label names match (so modules can share a registry without
    coordinating construction order) and raises otherwise.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _get_or_create(self, cls: type, name: str, *args: Any, **kwargs: Any):
        existing = self._families.get(name)
        if existing is not None:
            wanted = kwargs.get("labelnames") or (args[1] if len(args) > 1 else ())
            if type(existing) is not cls or existing.labelnames != tuple(wanted):
                raise ValueError(
                    f"metric {name!r} already registered with a different "
                    "type or label set"
                )
            return existing
        family = cls(name, *args, **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        """Register (or fetch) a counter family."""
        return self._get_or_create(Counter, name, help, labelnames=labelnames)

    def gauge(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Register (or fetch) a gauge family."""
        return self._get_or_create(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        """Register (or fetch) a histogram family."""
        family = self._get_or_create(
            Histogram, name, help, labelnames=labelnames, buckets=buckets
        )
        if buckets is not None and family.buckets != tuple(buckets):
            raise ValueError(
                f"metric {name!r} already registered with different buckets"
            )
        return family

    def render(self) -> str:
        """The full text exposition (ends with a newline)."""
        lines: list[str] = []
        for family in self._families.values():
            lines.extend(family.header())
            lines.extend(family.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> list[dict]:
        """JSON-ready state: one dict per family with its samples
        (numeric values for counters/gauges, summary dicts for
        histograms)."""
        out: list[dict] = []
        for family in self._families.values():
            samples: list[dict] = []
            if isinstance(family, Gauge) and family._callback is not None:
                samples.append({"labels": {}, "value": family.current()})
            else:
                for labels, child in family.items():
                    value: Any
                    if isinstance(family, Histogram):
                        value = child.to_dict()
                    else:
                        value = child.value
                    samples.append({"labels": labels, "value": value})
            out.append(
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
            )
        return out
