"""Streaming telemetry bus: bounded ring buffer, deterministic reservoirs.

Post-hoc observability (metrics snapshots, span trees) tells you what a
run *did*; the bus tells you what it is *doing*.  Protocol code
publishes small numeric samples onto named **topics** (``sync``,
``beacon``, ``rach``, ``fragments``, ``instant``, ``engine``) and online
subscribers — the analyzers in :mod:`repro.obs.analyzers`, the
``--live`` progress printer — consume them as the run advances.

Three properties keep the bus safe on hot paths:

* **bounded**: retained events live in a ring of fixed capacity; when a
  publish would overflow, the oldest event is evicted and the eviction
  is *counted*, never silent (``telemetry_dropped_total`` with
  ``reason="evicted"``).
* **deterministically sampled**: a :class:`ReservoirSample` attached to
  a topic keeps a uniform sample of one value stream using
  counter-hashed randomness (a pure function of the seed and the item
  ordinal — no RNG state, so repeated runs sample identically).
* **observation-only**: publishing draws no randomness and mutates no
  protocol state, so enabling the bus cannot perturb a run — the
  conformance goldens are the proof.

The bus is attached to an :class:`~repro.obs.Observability` bundle as
``obs.bus`` (``None`` unless the bundle was created with
``stream=True``), so the existing ``obs=None`` zero-cost contract
extends unchanged: kernels guard every publish behind one ``is not
None`` check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import MetricsRegistry

#: Ring capacity (retained events across all topics).
DEFAULT_CAPACITY = 4096


def _mix64(x: int) -> int:
    """SplitMix64 finalizer — a stateless 64-bit mixing hash."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class TelemetryEvent:
    """One admitted sample on one topic."""

    seq: int
    time_ms: float
    topic: str
    values: dict[str, float]
    labels: dict[str, str] = field(default_factory=dict)

    def __getitem__(self, key: str) -> float:
        return self.values[key]


class ReservoirSample:
    """Deterministic uniform reservoir over a value stream.

    Algorithm R with the usual RNG replaced by a counter hash: item
    ``i``'s replacement slot is ``_mix64(seed ^ i) % (i + 1)`` — a pure
    function of ``(seed, i)``, so two identical runs (any platform)
    retain byte-identical reservoirs.  Used for distribution-shaped
    telemetry (sync-spread samples, wave sizes) where the full stream is
    unbounded but a uniform sample is enough for percentiles.
    """

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.seen = 0
        self.values: list[float] = []

    def offer(self, value: float) -> bool:
        """Feed one value; returns True when it entered the reservoir."""
        i = self.seen
        self.seen += 1
        if i < self.capacity:
            self.values.append(float(value))
            return True
        j = _mix64(self.seed ^ i) % (i + 1)
        if j < self.capacity:
            self.values[j] = float(value)
            return True
        return False

    def sorted_values(self) -> list[float]:
        return sorted(self.values)

    def __len__(self) -> int:
        return len(self.values)


class TelemetryBus:
    """Bounded pub/sub bus for streaming run telemetry.

    The ring holds :data:`DEFAULT_CAPACITY` events across all topics;
    evictions are counted, not silent.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
        publishes/drops/alerts are mirrored into
        ``telemetry_events_total``, ``telemetry_dropped_total`` and
        ``alerts_total`` so run artifacts carry the accounting.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.capacity = DEFAULT_CAPACITY
        self.metrics = metrics
        self.events: list[TelemetryEvent] = []
        self._start = 0  # ring head (events[:_start] were evicted)
        self._seq = 0
        self._topic_counts: dict[str, int] = {}
        self._reservoirs: dict[tuple[str, str], ReservoirSample] = {}
        self._subscribers: list[Any] = []
        self.alerts: list[Any] = []
        self.dropped: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_reservoir(
        self, topic: str, key: str, capacity: int = 256, seed: int = 0
    ) -> ReservoirSample:
        """Attach a deterministic reservoir to ``values[key]`` of ``topic``.

        Reservoirs are fed by *every* publish, so the distribution stays
        unbiased even after the ring has evicted the events.
        """
        res = ReservoirSample(capacity, seed)
        self._reservoirs[(topic, key)] = res
        return res

    def reservoir(self, topic: str, key: str) -> ReservoirSample | None:
        return self._reservoirs.get((topic, key))

    def subscribe(self, subscriber: Any) -> None:
        """Register a subscriber: ``on_event(event)`` or a plain callable.

        Subscribers with a ``bind(bus)`` method are handed the bus so
        analyzers can raise alerts through :meth:`alert`.
        """
        bind = getattr(subscriber, "bind", None)
        if callable(bind):
            bind(self)
        self._subscribers.append(subscriber)

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        topic: str,
        time_ms: float,
        labels: dict[str, str] | None = None,
        **values: float,
    ) -> TelemetryEvent:
        """Publish one sample; returns the event.

        Reservoirs attached to the topic are fed with its value; when
        the ring is full the oldest event is evicted and counted in
        ``telemetry_dropped_total`` with ``reason="evicted"``.
        """
        self._topic_counts[topic] = self._topic_counts.get(topic, 0) + 1
        for (res_topic, key), res in self._reservoirs.items():
            if res_topic == topic and key in values:
                res.offer(values[key])
        event = TelemetryEvent(
            seq=self._seq,
            time_ms=float(time_ms),
            topic=topic,
            values={k: float(v) for k, v in values.items()},
            labels=dict(labels) if labels else {},
        )
        self._seq += 1
        if len(self.events) - self._start >= self.capacity:
            evicted = self.events[self._start]
            self._start += 1
            self._drop(evicted.topic, "evicted")
            # amortized compaction keeps the backing list bounded
            if self._start >= self.capacity:
                del self.events[: self._start]
                self._start = 0
        self.events.append(event)
        if self.metrics is not None:
            self.metrics.counter(
                "telemetry_events_total",
                help="telemetry samples admitted onto the bus",
                unit="events",
            ).inc(1, topic=topic)
        for sub in self._subscribers:
            handler = getattr(sub, "on_event", sub)
            handler(event)
        return event

    def _drop(self, topic: str, reason: str) -> None:
        key = (topic, reason)
        self.dropped[key] = self.dropped.get(key, 0) + 1
        if self.metrics is not None:
            self.metrics.counter(
                "telemetry_dropped_total",
                help="telemetry samples dropped (sampled out or evicted)",
                unit="events",
            ).inc(1, topic=topic, reason=reason)

    # ------------------------------------------------------------------
    # alerts (raised by analyzer subscribers)
    # ------------------------------------------------------------------
    def alert(self, alert: Any) -> None:
        """Record an analyzer alert and notify ``on_alert`` subscribers."""
        self.alerts.append(alert)
        if self.metrics is not None:
            self.metrics.counter(
                "alerts_total",
                help="structured alerts fired by online analyzers",
                unit="alerts",
            ).inc(
                1,
                analyzer=getattr(alert, "analyzer", "unknown"),
                severity=getattr(alert, "severity", "warning"),
            )
        for sub in self._subscribers:
            on_alert = getattr(sub, "on_alert", None)
            if callable(on_alert):
                on_alert(alert)

    def finalize(self, time_ms: float | None = None) -> None:
        """Tell subscribers the run ended (``finalize(time_ms)`` hook)."""
        for sub in self._subscribers:
            fin = getattr(sub, "finalize", None)
            if callable(fin):
                fin(time_ms)

    # ------------------------------------------------------------------
    # introspection / export
    # ------------------------------------------------------------------
    def retained(self, topic: str | None = None) -> list[TelemetryEvent]:
        """Events currently in the ring, oldest first."""
        live = self.events[self._start :]
        if topic is None:
            return list(live)
        return [e for e in live if e.topic == topic]

    def series(self, topic: str, key: str) -> list[tuple[float, float]]:
        """``(time_ms, value)`` pairs of one topic's named value."""
        return [
            (e.time_ms, e.values[key])
            for e in self.retained(topic)
            if key in e.values
        ]

    def published(self, topic: str | None = None) -> int:
        """Publishes so far (retained or evicted)."""
        if topic is None:
            return sum(self._topic_counts.values())
        return self._topic_counts.get(topic, 0)

    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    def stats(self) -> dict[str, Any]:
        """JSON-safe accounting summary for run artifacts."""
        return {
            "capacity": self.capacity,
            "retained": len(self.events) - self._start,
            "published": {
                t: c for t, c in sorted(self._topic_counts.items())
            },
            "dropped": {
                f"{topic}/{reason}": count
                for (topic, reason), count in sorted(self.dropped.items())
            },
            "alerts": len(self.alerts),
        }

    def __len__(self) -> int:
        return len(self.events) - self._start

    def clear(self) -> None:
        """Drop all retained events, counters and alerts (reservoirs
        stay attached, emptied)."""
        self.events.clear()
        self._start = 0
        self._seq = 0
        self._topic_counts.clear()
        self.dropped.clear()
        self.alerts.clear()
        for res in self._reservoirs.values():
            res.values.clear()
            res.seen = 0
