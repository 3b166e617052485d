"""Tests for the periodic protocol probes."""

from repro.obs.probes import PROBE_INTERVAL_MS, ProbeSet

#: one probe interval, for readable sample times
T = PROBE_INTERVAL_MS


class TestRecord:
    def test_record_and_series(self):
        ps = ProbeSet()
        assert ps.record(0.0, "sync", spread_ms=5.0)
        assert ps.record(1.5 * T, "sync", spread_ms=2.0)
        assert ps.series("sync", "spread_ms") == [(0.0, 5.0), (1.5 * T, 2.0)]

    def test_interval_throttles(self):
        ps = ProbeSet()
        assert ps.record(0.0, "sync", v=1)
        assert not ps.record(0.5 * T, "sync", v=2)  # not yet due
        assert ps.record(T, "sync", v=3)
        assert [t for t, _ in ps.series("sync", "v")] == [0.0, T]

    def test_force_bypasses_interval(self):
        ps = ProbeSet()
        ps.record(0.0, "sync", v=1)
        assert ps.record(1.0, "sync", force=True, v=2)
        assert len(ps) == 2

    def test_probes_throttle_independently(self):
        ps = ProbeSet()
        ps.record(0.0, "sync", v=1)
        assert ps.record(0.1 * T, "fragments", count=4)
        assert ps.probes() == ["fragments", "sync"]

    def test_values_coerced_to_float(self):
        ps = ProbeSet()
        ps.record(0.0, "sync", fires=7)
        sample = ps.samples[0]
        assert sample["fires"] == 7.0
        assert isinstance(sample.values["fires"], float)


class TestValidationAndExport:
    def test_to_dicts_flat_and_json_safe(self):
        import json

        ps = ProbeSet()
        ps.record(5.0, "sync", spread_ms=1.5, fires=3)
        (doc,) = ps.to_dicts()
        assert doc == {
            "time_ms": 5.0,
            "probe": "sync",
            "spread_ms": 1.5,
            "fires": 3.0,
        }
        assert json.loads(json.dumps(doc)) == doc

    def test_clear_resets_schedule(self):
        ps = ProbeSet()
        ps.record(0.0, "sync", v=1)
        ps.clear()
        assert len(ps) == 0
        assert ps.record(0.0, "sync", v=2)  # due again after clear
