"""Run-scoped metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the *single source of truth* for protocol accounting:
:class:`~repro.core.st.STSimulation` and
:class:`~repro.core.fst.FSTSimulation` bill every control message through
:meth:`Counter.inc` and derive their ``RunResult.message_breakdown`` from
the same table, so the paper's Fig. 4 totals and the observability
counters cannot drift apart.

Metrics are labelled (Prometheus-style): one :class:`Counter` family such
as ``messages_total`` holds one sample per distinct label set
(``algorithm="st", kind="handshake", codec="rach2"``).  Counters are
monotonic — negative increments raise.  Histograms use fixed upper-bound
buckets chosen at creation time, so bucketing is deterministic and two
snapshots are always mergeable.

All state is plain Python (numpy only vectorizes
:meth:`_BoundHistogram.observe_many`), cheap to create per run, and
serialized by :meth:`MetricsRegistry.snapshot` into a JSON-safe dict that
:mod:`repro.obs.exporters` writes out.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

import numpy as np

LabelValue = "str | int | float | bool"

#: Default histogram buckets (generic positive quantities).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0)


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable key for one label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _key_to_labels(key: tuple[tuple[str, str], ...]) -> dict[str, str]:
    return dict(key)


class Metric:
    """Common behaviour of one named metric family."""

    kind = "metric"

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.unit = unit

    def samples(self) -> list[dict[str, Any]]:  # pragma: no cover - abstract
        raise NotImplementedError

    def reset(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "unit": self.unit,
            "samples": self.samples(),
        }


class _BoundCounter:
    """One pre-resolved counter sample; see :meth:`Counter.bound`."""

    __slots__ = ("_values", "_key", "_name")

    def __init__(self, counter: "Counter", key: tuple) -> None:
        self._values = counter._values
        self._key = key
        self._name = counter.name

    def inc(self, value: float = 1) -> None:
        if value < 0:
            raise ValueError(
                f"counter {self._name!r} is monotonic; got inc({value})"
            )
        self._values[self._key] = self._values.get(self._key, 0) + value


class Counter(Metric):
    """Monotonically increasing labelled counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        super().__init__(name, help, unit)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, value: float = 1, **labels: Any) -> None:
        """Add ``value`` (>= 0) to the sample selected by ``labels``."""
        if value < 0:
            raise ValueError(
                f"counter {self.name!r} is monotonic; got inc({value})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + value

    def bound(self, **labels: Any) -> _BoundCounter:
        """Fast-path view for hot loops: the label key is resolved once
        here instead of on every ``inc`` call."""
        return _BoundCounter(self, _label_key(labels))

    def value(self, **labels: Any) -> float:
        """Current value of one label set (0 if never incremented)."""
        return self._values.get(_label_key(labels), 0)

    def total(self, **match: Any) -> float:
        """Sum over all samples whose labels include ``match``."""
        want = set(_label_key(match))
        return sum(
            v for k, v in self._values.items() if want.issubset(set(k))
        )

    def breakdown(self, label: str, **match: Any) -> dict[str, float]:
        """Totals grouped by one label, restricted to ``match``.

        ``messages_total.breakdown("kind", algorithm="st")`` is exactly
        the Fig. 4 per-kind message bill.
        """
        want = set(_label_key(match))
        out: dict[str, float] = {}
        for key, v in self._values.items():
            if not want.issubset(set(key)):
                continue
            for k, lv in key:
                if k == label:
                    out[lv] = out.get(lv, 0) + v
        return out

    def samples(self) -> list[dict[str, Any]]:
        return [
            {"labels": _key_to_labels(k), "value": v}
            for k, v in sorted(self._values.items())
        ]

    def reset(self) -> None:
        self._values.clear()


class Gauge(Metric):
    """Labelled gauge — a value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        super().__init__(name, help, unit)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = value

    def add(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + value

    def set_max(self, value: float, **labels: Any) -> None:
        """Keep the running maximum (high-water-mark gauges)."""
        key = _label_key(labels)
        if value > self._values.get(key, -math.inf):
            self._values[key] = value

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    def samples(self) -> list[dict[str, Any]]:
        return [
            {"labels": _key_to_labels(k), "value": v}
            for k, v in sorted(self._values.items())
        ]

    def reset(self) -> None:
        self._values.clear()


class _HistSample:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class _BoundHistogram:
    """One pre-resolved histogram sample; see :meth:`Histogram.bound`."""

    __slots__ = ("_buckets", "_sample")

    def __init__(self, buckets: tuple[float, ...], sample: _HistSample) -> None:
        self._buckets = buckets
        self._sample = sample

    def observe(self, value: float) -> None:
        s = self._sample
        for i, bound in enumerate(self._buckets):
            if value <= bound:
                s.counts[i] += 1
                break
        else:
            s.counts[-1] += 1
        s.sum += value
        s.count += 1

    def observe_many(self, values) -> None:
        """:meth:`observe` each of ``values`` in order, vectorized:
        ``searchsorted`` + ``bincount`` bucket them, and the sum
        accumulates left to right, so it is bitwise the looped one."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        s = self._sample
        hits = np.bincount(
            np.searchsorted(self._buckets, values, side="left"),
            minlength=len(s.counts),
        )
        for i, c in enumerate(hits.tolist()):
            s.counts[i] += c
        s.sum = float(np.cumsum(np.concatenate(([s.sum], values)))[-1])
        s.count += values.size


class Histogram(Metric):
    """Fixed-bucket labelled histogram.

    ``buckets`` are ascending finite upper bounds; an implicit ``+inf``
    bucket catches the tail.  Exported bucket counts are *cumulative*
    (Prometheus ``le`` semantics).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "",
        unit: str = "",
    ) -> None:
        super().__init__(name, help, unit)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must ascend, got {bounds}")
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+inf is implicit)")
        self.buckets = bounds
        self._samples: dict[tuple[tuple[str, str], ...], _HistSample] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        s = self._samples.get(key)
        if s is None:
            s = self._samples[key] = _HistSample(len(self.buckets) + 1)
        # linear scan beats bisect for the short bucket lists used here
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                s.counts[i] += 1
                break
        else:
            s.counts[-1] += 1
        s.sum += value
        s.count += 1

    def bound(self, **labels: Any) -> _BoundHistogram:
        """Fast-path view for hot loops: the label key is resolved once
        here instead of on every ``observe`` call."""
        key = _label_key(labels)
        s = self._samples.get(key)
        if s is None:
            s = self._samples[key] = _HistSample(len(self.buckets) + 1)
        return _BoundHistogram(self.buckets, s)

    def count(self, **labels: Any) -> int:
        s = self._samples.get(_label_key(labels))
        return s.count if s is not None else 0

    def sum_(self, **labels: Any) -> float:
        s = self._samples.get(_label_key(labels))
        return s.sum if s is not None else 0.0

    def bucket_counts(self, **labels: Any) -> list[tuple[str, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``("+inf", n)``."""
        s = self._samples.get(_label_key(labels))
        raw = s.counts if s is not None else [0] * (len(self.buckets) + 1)
        les = [repr(b) for b in self.buckets] + ["+inf"]
        out, running = [], 0
        for le, c in zip(les, raw):
            running += c
            out.append((le, running))
        return out

    def samples(self) -> list[dict[str, Any]]:
        return [
            {
                "labels": _key_to_labels(k),
                "buckets": [
                    list(pair) for pair in self.bucket_counts(**_key_to_labels(k))
                ],
                "sum": s.sum,
                "count": s.count,
            }
            for k, s in sorted(self._samples.items())
        ]

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this histogram, bucket-wise.

        Bucket boundaries must be *identical* — a mismatch (including a
        different bucket count) raises :class:`ValueError` instead of
        silently misaligning counts.  Merging an empty histogram is a
        no-op; label sets only present in ``other`` are adopted.
        """
        if not isinstance(other, Histogram):
            raise TypeError(
                f"can only merge Histogram into Histogram, got "
                f"{type(other).__name__}"
            )
        if self.buckets != other.buckets:
            raise ValueError(
                f"histogram {self.name!r}: bucket boundaries differ "
                f"({self.buckets} vs {other.buckets}); refusing to merge "
                "misaligned buckets"
            )
        for key, theirs in other._samples.items():
            mine = self._samples.get(key)
            if mine is None:
                mine = self._samples[key] = _HistSample(len(self.buckets) + 1)
            for i, c in enumerate(theirs.counts):
                mine.counts[i] += c
            mine.sum += theirs.sum
            mine.count += theirs.count

    def load_samples(
        self,
        entries: "list[tuple[dict[str, Any], list[int], float, int]]",
    ) -> None:
        """Install raw (non-cumulative) per-bucket counts for label sets.

        Each entry is ``(labels, counts, sum, count)`` with
        ``len(counts) == len(buckets) + 1`` (the trailing slot is the
        implicit ``+inf`` bucket).  Used to rebuild a registry from a
        merged cross-process snapshot; existing samples for the same
        label set are added to, mirroring :meth:`merge`.
        """
        for labels, counts, total, n in entries:
            if len(counts) != len(self.buckets) + 1:
                raise ValueError(
                    f"histogram {self.name!r}: {len(counts)} counts for "
                    f"{len(self.buckets) + 1} buckets"
                )
            key = _label_key(labels)
            s = self._samples.get(key)
            if s is None:
                s = self._samples[key] = _HistSample(len(self.buckets) + 1)
            for i, c in enumerate(counts):
                s.counts[i] += int(c)
            s.sum += float(total)
            s.count += int(n)

    def reset(self) -> None:
        self._samples.clear()


class MetricsRegistry:
    """Named collection of metrics for one run (or one shared scope).

    ``counter``/``gauge``/``histogram`` get-or-create by name, so
    instrumentation sites do not need to coordinate declaration order.
    Re-requesting a name with a different metric type raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, requested {cls.kind}"
                )
            return existing
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help, unit=unit)

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help, unit=unit)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "",
        unit: str = "",
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, buckets=buckets, help=help, unit=unit
        )

    # ------------------------------------------------------------------
    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics[n] for n in self.names())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dump of every metric family and its samples."""
        return {name: self._metrics[name].describe() for name in self.names()}

    def reset(self) -> None:
        """Zero every sample but keep the metric definitions (per-run reset)."""
        for metric in self._metrics.values():
            metric.reset()
