"""Always-on metric primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` hands out metric instances keyed by
``(name, labels)``; callers cache the returned object and bump plain
attributes on the hot path, so recording costs one attribute store.

Facts a component already counts for itself (kernel totals, switch-port
totals, server counters) are not pushed at all: the component registers
a *collector* that publishes its plain counts when the registry is read
(see :meth:`MetricsRegistry.collect`).  Everything is deterministic: no
wall clock, no hashing order — the snapshot is emitted in sorted key
order, so two identical runs produce byte-identical exports.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import Callable, Iterator, Mapping, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: Log-spaced upper bounds for latency-shaped histograms (seconds).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
)

#: Upper bounds for request/transfer sizes (bytes).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    512.0, 4096.0, 65536.0, 1048576.0, 16777216.0, 268435456.0,
)


def _label_items(labels: dict) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def render_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotone accumulator.  Bump via :meth:`inc` or ``.value`` directly."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({render_key(self.name, self.labels)}={self.value:g})"


class Gauge:
    """Instantaneous (non-monotone) value with set/inc/dec."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({render_key(self.name, self.labels)}={self.value:g})"


class Histogram:
    """Fixed-bucket histogram with running sum/min/max.

    ``edges`` are inclusive upper bounds; an observation ``x`` lands in
    the first bucket whose edge satisfies ``x <= edge``, values above the
    last edge land in the overflow bucket (``counts[-1]``), so
    ``len(counts) == len(edges) + 1``.
    """

    __slots__ = ("name", "labels", "edges", "counts", "sum", "count", "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        edges: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be a non-empty ascending sequence")
        self.name = name
        self.labels = labels
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, x: float) -> None:
        self.counts[bisect_left(self.edges, x)] += 1
        self.sum += x
        self.count += 1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({render_key(self.name, self.labels)}, n={self.count})"


def _add_counts(prefix: str, counts: Mapping[str, float], labels: dict, m) -> None:
    for key, amount in counts.items():
        m.counter(prefix + key, **labels).inc(amount)


class MetricsRegistry:
    """Deterministic registry of named, labelled metrics.

    ``counter`` / ``gauge`` / ``histogram`` create on first use and return
    the cached instance afterwards; a name+labels pair is pinned to one
    metric type for the registry's lifetime.

    **Collectors.**  :meth:`register_collector` adds a callable
    ``collect(registry)`` that publishes a component's own counts through
    :meth:`counter` / :meth:`gauge`.  Every read (:meth:`snapshot`,
    iteration, :meth:`find`, ``len()``) goes through :meth:`collect`, so
    collected series always equal their components' totals.  A series a
    collector owns must not also be pushed.
    """

    __slots__ = ("_metrics", "_collectors")

    def __init__(self) -> None:
        self._metrics: dict[Tuple[str, LabelItems], object] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {render_key(*key)!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def register_collector(self, collect: Callable[["MetricsRegistry"], None]) -> None:
        """Have ``collect(registry)`` publish its component's counts at every read."""
        self._collectors.append(collect)

    def collect(self) -> dict:
        """Every metric by key: the pushed ones plus freshly collected series.

        The collectors run into an empty registry on every call, so
        several components sharing this registry add up and nothing is
        counted twice; a gauge folded by max starts from zero.
        """
        if not self._collectors:
            return self._metrics
        fresh = MetricsRegistry()
        for collect in self._collectors:
            collect(fresh)
        return {**self._metrics, **fresh._metrics}

    def register_counts(self, prefix: str, counts: Mapping[str, float], **labels) -> None:
        """Collect each ``key -> amount`` of ``counts`` as counter ``prefix + key``.

        The collector holds only ``counts`` (e.g. a component's
        ``collections.Counter``), not the component that owns it.
        """
        self.register_collector(partial(_add_counts, prefix, counts, labels))

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels
    ) -> Histogram:
        return self._get(
            Histogram, name, labels, edges=buckets or DEFAULT_LATENCY_BUCKETS
        )

    def __len__(self) -> int:
        return len(self.collect())

    def __iter__(self) -> Iterator[object]:
        metrics = self.collect()
        for key in sorted(metrics):
            yield metrics[key]

    def find(self, prefix: str = "") -> list:
        """All metrics whose name starts with ``prefix``, sorted by key."""
        return [m for m in self if m.name.startswith(prefix)]  # type: ignore[attr-defined]

    def snapshot(self) -> dict:
        """Sorted, JSON-ready view of every metric (deterministic)."""
        metrics = self.collect()
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for key in sorted(metrics):
            metric = metrics[key]
            full = render_key(*key)
            if isinstance(metric, Counter):
                counters[full] = metric.value
            elif isinstance(metric, Gauge):
                gauges[full] = metric.value
            else:
                histograms[full] = metric.as_dict()  # type: ignore[union-attr]
        return {"counters": counters, "gauges": gauges, "histograms": histograms}
