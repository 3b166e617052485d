"""Telemetry bus: ring bounds, reservoirs, drop accounting."""

import pytest

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import DEFAULT_CAPACITY, ReservoirSample, TelemetryBus


class TestPublish:
    def test_event_carries_values_and_labels(self):
        bus = TelemetryBus()
        ev = bus.publish("sync", 10.0, {"algorithm": "st"}, spread_ms=3.5)
        assert ev is not None
        assert ev.topic == "sync"
        assert ev.time_ms == 10.0
        assert ev["spread_ms"] == 3.5
        assert ev.labels == {"algorithm": "st"}

    def test_sequence_numbers_monotonic(self):
        bus = TelemetryBus()
        seqs = [bus.publish("t", i, x=i).seq for i in range(5)]
        assert seqs == sorted(seqs) and len(set(seqs)) == 5

    def test_retained_and_series(self):
        bus = TelemetryBus()
        for i in range(4):
            bus.publish("sync", float(i), spread_ms=float(10 - i))
        bus.publish("beacon", 9.0, period=1)
        assert len(bus.retained("sync")) == 4
        assert len(bus.retained()) == 5
        assert bus.series("sync", "spread_ms") == [
            (0.0, 10.0), (1.0, 9.0), (2.0, 8.0), (3.0, 7.0),
        ]

    def test_subscriber_callable_and_on_event(self):
        bus = TelemetryBus()
        seen: list[str] = []
        bus.subscribe(lambda ev: seen.append(f"fn:{ev.topic}"))

        class Sub:
            def on_event(self, ev):
                seen.append(f"obj:{ev.topic}")

        bus.subscribe(Sub())
        bus.publish("sync", 0.0, spread_ms=1.0)
        assert seen == ["fn:sync", "obj:sync"]


def fill(bus: TelemetryBus, extra: int, topic: str = "t") -> None:
    """Publish ``DEFAULT_CAPACITY + extra`` events at times 0, 1, ..."""
    for i in range(DEFAULT_CAPACITY + extra):
        bus.publish(topic, float(i), x=i)


class TestRingEviction:
    def test_oldest_evicted_and_counted(self):
        bus = TelemetryBus()
        fill(bus, 2)
        assert len(bus) == DEFAULT_CAPACITY
        assert [e.time_ms for e in bus.retained()[:2]] == [2.0, 3.0]
        assert bus.retained()[-1].time_ms == DEFAULT_CAPACITY + 1.0
        assert bus.dropped[("t", "evicted")] == 2
        assert bus.dropped_total() == 2

    def test_backing_list_stays_bounded(self):
        bus = TelemetryBus()
        fill(bus, 3 * DEFAULT_CAPACITY)
        # amortized compaction: the list never grows past 2x capacity
        assert len(bus.events) <= 2 * DEFAULT_CAPACITY
        last = 4.0 * DEFAULT_CAPACITY
        assert [e.time_ms for e in bus.retained()[-2:]] == [last - 2, last - 1]

    def test_eviction_mirrored_into_metrics(self):
        reg = MetricsRegistry()
        bus = TelemetryBus(metrics=reg)
        fill(bus, 3)
        assert (
            reg.counter("telemetry_events_total").value(topic="t")
            == DEFAULT_CAPACITY + 3
        )
        assert (
            reg.counter("telemetry_dropped_total").value(
                topic="t", reason="evicted"
            )
            == 3
        )


class TestSamplingPolicies:
    """Every publish is admitted; the ring's evictions are the only drops."""

    def test_keep_all_is_default(self):
        bus = TelemetryBus()
        events = [bus.publish("wave", float(i), k=i) for i in range(7)]
        assert [e.seq for e in events] == list(range(7))
        assert bus.published("wave") == 7
        assert not bus.dropped

    def test_stats_json_safe(self):
        import json

        bus = TelemetryBus()
        fill(bus, 3, topic="w")
        stats = bus.stats()
        assert json.loads(json.dumps(stats)) == stats
        assert stats["published"] == {"w": DEFAULT_CAPACITY + 3}
        assert stats["dropped"] == {"w/evicted": 3}

    def test_clear_resets_accounting_but_keeps_policies(self):
        bus = TelemetryBus()
        res = bus.add_reservoir("w", "x", capacity=8)
        fill(bus, 2, topic="w")
        bus.clear()
        assert len(bus) == 0 and bus.published() == 0 and not bus.dropped
        assert len(res) == 0 and res.seen == 0
        # the reservoir stays attached: the next publish feeds it again
        assert bus.publish("w", 0.0, x=7) is not None
        assert bus.reservoir("w", "x") is res and res.values == [7.0]


class TestReservoir:
    def test_fills_to_capacity_then_samples(self):
        res = ReservoirSample(capacity=8, seed=1)
        for i in range(100):
            res.offer(float(i))
        assert len(res) == 8
        assert res.seen == 100
        assert all(0.0 <= v <= 99.0 for v in res.values)

    def test_deterministic_across_repeated_seeds(self):
        outcomes = []
        for _ in range(3):
            res = ReservoirSample(capacity=16, seed=7)
            for i in range(500):
                res.offer(float(i * 3 % 101))
            outcomes.append(res.sorted_values())
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_different_seeds_sample_differently(self):
        def sample(seed):
            res = ReservoirSample(capacity=8, seed=seed)
            for i in range(200):
                res.offer(float(i))
            return res.sorted_values()

        assert sample(1) != sample(2)

    def test_fed_before_admission(self):
        bus = TelemetryBus()
        res = bus.add_reservoir("sync", "spread_ms", capacity=64, seed=0)
        published = DEFAULT_CAPACITY + 50
        for i in range(published):
            bus.publish("sync", float(i), spread_ms=float(i))
        # the ring keeps its capacity, but every publish reached the
        # reservoir
        assert len(bus.retained("sync")) == DEFAULT_CAPACITY
        assert res.seen == published
        assert len(res) == 64

    def test_bundle_attaches_sync_reservoir(self):
        obs = Observability(stream=True)
        assert obs.bus is not None
        assert obs.bus.reservoir("sync", "spread_ms") is not None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ReservoirSample(0)


class TestBundleContract:
    def test_disabled_bundle_has_no_bus(self):
        assert Observability(enabled=False, stream=True).bus is None
        assert Observability().bus is None

    def test_reset_clears_bus(self):
        obs = Observability(stream=True)
        obs.bus.publish("sync", 0.0, spread_ms=1.0)
        obs.reset()
        assert len(obs.bus) == 0

    def test_stream_capacity_respected(self):
        obs = Observability(stream=True)
        assert obs.bus.capacity == DEFAULT_CAPACITY
