"""Online analyzers: running moments, stall and collision-storm alerts."""

import statistics

from repro.core.config import PaperConfig
from repro.core.fst import FSTSimulation
from repro.core.network import D2DNetwork
from repro.core.st import STSimulation
from repro.obs import Observability
from repro.obs.analyzers import (
    CollisionStormDetector,
    FragmentMergeRate,
    LiveProgress,
    StallDetector,
    WelfordSyncSpread,
    default_analyzers,
)
from repro.obs.stream import TelemetryBus


def _bus_with(analyzer):
    bus = TelemetryBus()
    bus.subscribe(analyzer)
    return bus


class TestWelfordSyncSpread:
    def test_matches_batch_moments(self):
        values = [4.0, 7.5, 1.25, 9.0, 3.0, 3.0, 8.25]
        an = WelfordSyncSpread()
        bus = _bus_with(an)
        for i, v in enumerate(values):
            bus.publish("sync", float(i), spread_ms=v)
        assert an.count == len(values)
        assert abs(an.mean - statistics.fmean(values)) < 1e-12
        assert abs(an.std - statistics.pstdev(values)) < 1e-12

    def test_ignores_other_topics_and_missing_key(self):
        an = WelfordSyncSpread()
        bus = _bus_with(an)
        bus.publish("beacon", 0.0, missing_pairs=3)
        bus.publish("sync", 1.0, order_parameter=0.5)
        assert an.count == 0

    def test_updates_gauges_when_metrics_attached(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        bus = TelemetryBus(metrics=reg)
        bus.subscribe(WelfordSyncSpread())
        bus.publish("sync", 0.0, {"algorithm": "st"}, spread_ms=4.0)
        bus.publish("sync", 1.0, {"algorithm": "st"}, spread_ms=6.0)
        assert reg.gauge("sync_spread_mean_ms").value(algorithm="st") == 5.0


class TestFragmentMergeRate:
    def test_rate_from_consecutive_counts(self):
        an = FragmentMergeRate()
        bus = _bus_with(an)
        bus.publish("fragments", 100.0, count=32)
        bus.publish("fragments", 200.0, count=12)
        assert an.rate == (32 - 12) / 100.0

    def test_growth_clamps_to_zero(self):
        an = FragmentMergeRate()
        bus = _bus_with(an)
        bus.publish("fragments", 0.0, count=4)
        bus.publish("fragments", 10.0, count=9)
        assert an.rate == 0.0


class TestStallDetector:
    def test_fires_after_patience_without_progress(self):
        an = StallDetector("sync", "spread_ms", patience=3)
        bus = _bus_with(an)
        bus.publish("sync", 0.0, spread_ms=10.0)
        for i in range(3):
            bus.publish("sync", float(i + 1), spread_ms=10.0)
        assert len(an.alerts) == 1
        alert = an.alerts[0]
        assert alert.severity == "critical"
        assert alert.context["samples"] == 3
        assert bus.alerts == [alert]

    def test_one_alert_per_episode_then_rearms(self):
        an = StallDetector("sync", "spread_ms", patience=2)
        bus = _bus_with(an)
        feed = [5.0, 5.0, 5.0, 5.0,   # stall episode 1 (fires once)
                3.0,                   # progress: re-arm
                3.0, 3.0, 3.0]         # stall episode 2
        for i, v in enumerate(feed):
            bus.publish("sync", float(i), spread_ms=v)
        assert len(an.alerts) == 2

    def test_done_value_short_circuits(self):
        an = StallDetector("sync", "spread_ms", patience=2, done_value=1e-3)
        bus = _bus_with(an)
        for i in range(10):
            bus.publish("sync", float(i), spread_ms=0.0)  # converged
        assert an.alerts == []

    def test_direction_up(self):
        an = StallDetector("beacon", "fill_ratio", patience=2, direction="up")
        bus = _bus_with(an)
        for i, v in enumerate([0.1, 0.5, 0.5, 0.5]):
            bus.publish("beacon", float(i), fill_ratio=v)
        assert len(an.alerts) == 1

    def test_steady_progress_never_fires(self):
        an = StallDetector("sync", "spread_ms", patience=2)
        bus = _bus_with(an)
        for i in range(20):
            bus.publish("sync", float(i), spread_ms=20.0 - i)
        assert an.alerts == []


class TestCollisionStorm:
    def test_fires_above_threshold_once(self):
        an = CollisionStormDetector(window=4, threshold=0.3,
                                    min_transmitters=8)
        bus = _bus_with(an)
        for i in range(6):
            bus.publish("rach", float(i), collisions=5, transmitters=10)
        assert len(an.alerts) == 1
        assert an.alerts[0].severity == "warning"
        assert an.alerts[0].context["rate"] == 0.5

    def test_quiet_periods_do_not_fire(self):
        an = CollisionStormDetector(window=4, threshold=0.3,
                                    min_transmitters=8)
        bus = _bus_with(an)
        for i in range(10):
            bus.publish("rach", float(i), collisions=1, transmitters=10)
        assert an.alerts == []

    def test_activity_floor_suppresses_tiny_windows(self):
        an = CollisionStormDetector(window=4, threshold=0.3,
                                    min_transmitters=8)
        bus = _bus_with(an)
        bus.publish("rach", 0.0, collisions=2, transmitters=2)  # 100% but tiny
        assert an.alerts == []

    def test_rearms_after_calm(self):
        an = CollisionStormDetector(window=2, threshold=0.3,
                                    min_transmitters=4)
        bus = _bus_with(an)
        for i in range(3):
            bus.publish("rach", float(i), collisions=4, transmitters=8)
        for i in range(3, 6):
            bus.publish("rach", float(i), collisions=0, transmitters=8)
        for i in range(6, 9):
            bus.publish("rach", float(i), collisions=4, transmitters=8)
        assert len(an.alerts) == 2


class TestLiveProgress:
    def test_renders_known_topics_and_alerts(self):
        lines: list[str] = []
        bus = TelemetryBus()
        bus.subscribe(StallDetector("sync", "spread_ms", patience=1))
        bus.subscribe(LiveProgress(print_fn=lines.append))
        bus.publish("sync", 1000.0, spread_ms=2.5)
        bus.publish("fragments", 1500.0, count=8, largest=12, phase=2)
        bus.publish("beacon", 2000.0, period=3, missing_pairs=40)
        bus.publish("engine", 2500.0, pending=5)  # no renderer: silent
        bus.publish("sync", 3000.0, spread_ms=2.5)  # stall fires
        sync_lines = [ln for ln in lines if " sync " in ln]
        assert sync_lines and "spread=" in sync_lines[0]
        assert any("fragments" in ln for ln in lines)
        assert any("beacon" in ln for ln in lines)
        assert any("ALERT critical" in ln for ln in lines)
        assert not any("engine" in ln for ln in lines)

    def test_min_interval_throttles(self):
        lines: list[str] = []
        bus = TelemetryBus()
        bus.subscribe(LiveProgress(print_fn=lines.append,
                                   min_interval_ms=1000.0))
        for t in (0.0, 100.0, 900.0, 1000.0, 1500.0):
            bus.publish("sync", t, spread_ms=1.0)
        assert len(lines) == 2  # t=0 and t=1000

    def test_default_sink_is_stderr(self, capsys):
        bus = TelemetryBus()
        bus.subscribe(LiveProgress())
        bus.publish("sync", 1000.0, spread_ms=2.5)
        captured = capsys.readouterr()
        assert "[live]" in captured.err
        assert captured.out == ""


class TestEndToEnd:
    """The default analyzer set against real runs (ISSUE satellite)."""

    def test_stall_fires_on_crash_faulted_run(self):
        from repro.faults import FaultConfig

        config = (
            PaperConfig(seed=2)
            .with_devices(48, keep_density=True)
            .replace(
                faults=FaultConfig.from_spec(
                    "collision=0.6,beacon_loss=0.3,"
                    "crash=0.1,crash_window_ms=4000"
                ),
            )
        )
        obs = Observability(stream=True)
        sim = FSTSimulation(D2DNetwork(config), obs=obs)
        sim.run()
        obs.bus.finalize()
        assert any(a.analyzer == "stall" for a in obs.bus.alerts)

    def test_clean_small_run_fires_nothing(self):
        config = PaperConfig(seed=1).with_devices(8, keep_density=True)
        obs = Observability(stream=True)
        sim = STSimulation(D2DNetwork(config), obs=obs)
        result = sim.run()
        obs.bus.finalize()
        assert result.converged
        assert obs.bus.alerts == []

    def test_default_set_composition(self):
        names = [a.name for a in default_analyzers()]
        assert names.count("stall") == 2
        assert "welford_sync_spread" in names
        assert "collision_storm" in names
