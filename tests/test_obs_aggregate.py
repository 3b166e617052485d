"""Mergeable cross-process observability snapshots."""

import itertools

import pytest

from repro.obs import Observability
from repro.obs.aggregate import (
    SCHEMA,
    canonical_snapshot,
    empty_snapshot,
    merge_snapshots,
    merge_two,
    read_snapshot,
    to_registry,
    worker_snapshot,
    write_snapshot,
)
from repro.obs.analyzers import Alert
from repro.obs.exporters import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import DEFAULT_CAPACITY


def _registry(messages: int, fill: float) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("messages_total", help="msgs", unit="messages").inc(
        messages, algorithm="st", kind="discovery"
    )
    reg.gauge("fill", help="fill", unit="ratio").set(fill, algorithm="st")
    reg.histogram("sizes", buckets=(1.0, 5.0), help="s", unit="n").observe(3.0)
    return reg


class TestWorkerSnapshot:
    def test_schema_and_worker_id(self):
        snap = worker_snapshot(_registry(5, 0.5), worker_id=3)
        assert snap["schema"] == SCHEMA
        assert snap["workers"] == [3]

    def test_negative_worker_id_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            worker_snapshot(_registry(1, 0.1), worker_id=-1)

    def test_gauge_samples_carry_writer(self):
        snap = worker_snapshot(_registry(1, 0.7), worker_id=9)
        (sample,) = snap["metrics"]["fill"]["samples"]
        assert sample["writer"] == 9
        assert sample["value"] == 0.7

    def test_histogram_counts_are_raw_not_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 5.0))
        for v in (0.5, 3.0, 99.0):
            h.observe(v)
        snap = worker_snapshot(reg, worker_id=0)
        (sample,) = snap["metrics"]["h"]["samples"]
        # one value per bucket (2 bounds + inf), de-cumulated
        assert sample["counts"] == [1, 1, 1]
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(102.5)

    def test_accepts_full_bundle_with_spans(self):
        obs = Observability()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        snap = worker_snapshot(obs, worker_id=2)
        assert list(snap["spans"]) == ["2"]
        assert snap["spans"]["2"][0]["name"] == "outer"


class TestMergeTwo:
    def test_counters_sum_per_label_set(self):
        a = worker_snapshot(_registry(5, 0.1), worker_id=0)
        b = worker_snapshot(_registry(7, 0.2), worker_id=1)
        merged = merge_two(a, b)
        (sample,) = merged["metrics"]["messages_total"]["samples"]
        assert sample["value"] == 12

    def test_gauge_highest_worker_wins_either_order(self):
        a = worker_snapshot(_registry(1, 0.25), worker_id=0)
        b = worker_snapshot(_registry(1, 0.75), worker_id=4)
        for merged in (merge_two(a, b), merge_two(b, a)):
            (sample,) = merged["metrics"]["fill"]["samples"]
            assert sample["value"] == 0.75
            assert sample["writer"] == 4

    def test_histograms_merge_bucket_wise(self):
        a = worker_snapshot(_registry(1, 0.1), worker_id=0)
        b = worker_snapshot(_registry(1, 0.2), worker_id=1)
        merged = merge_two(a, b)
        (sample,) = merged["metrics"]["sizes"]["samples"]
        assert sample["counts"] == [0, 2, 0]
        assert sample["count"] == 2

    def test_mismatched_histogram_bounds_raise(self):
        a = worker_snapshot(_registry(1, 0.1), worker_id=0)
        reg = MetricsRegistry()
        reg.histogram("sizes", buckets=(2.0, 8.0)).observe(3.0)
        b = worker_snapshot(reg, worker_id=1)
        with pytest.raises(ValueError, match="misaligned buckets"):
            merge_two(a, b)

    def test_overlapping_worker_ids_raise(self):
        a = worker_snapshot(_registry(1, 0.1), worker_id=0)
        b = worker_snapshot(_registry(1, 0.2), worker_id=0)
        with pytest.raises(ValueError, match="merged exactly once"):
            merge_two(a, b)

    def test_schema_mismatch_raises(self):
        a = worker_snapshot(_registry(1, 0.1), worker_id=0)
        with pytest.raises(ValueError, match="schema"):
            merge_two(a, {"schema": "other/1"})

    def test_metric_kind_conflict_raises(self):
        reg_a = MetricsRegistry()
        reg_a.counter("x").inc(1)
        reg_b = MetricsRegistry()
        reg_b.gauge("x").set(1)
        with pytest.raises(ValueError, match="kind mismatch"):
            merge_two(
                worker_snapshot(reg_a, worker_id=0),
                worker_snapshot(reg_b, worker_id=1),
            )

    def test_metric_in_one_side_only_survives(self):
        reg = MetricsRegistry()
        reg.counter("only_here").inc(4)
        merged = merge_two(
            worker_snapshot(reg, worker_id=0),
            worker_snapshot(MetricsRegistry(), worker_id=1),
        )
        assert merged["metrics"]["only_here"]["samples"][0]["value"] == 4


class TestOrderIndependence:
    def _snaps(self):
        return [
            worker_snapshot(_registry(3 + i, 0.1 * i), worker_id=i)
            for i in range(4)
        ]

    def test_all_permutations_byte_identical(self):
        snaps = self._snaps()
        texts = {
            canonical_snapshot(merge_snapshots(perm))
            for perm in itertools.permutations(snaps)
        }
        assert len(texts) == 1

    def test_merge_of_nothing_is_the_identity(self):
        assert merge_snapshots([]) == empty_snapshot()

    def test_empty_is_merge_identity(self):
        snap = merge_snapshots(self._snaps())
        again = merge_two(snap, empty_snapshot())
        assert canonical_snapshot(again) == canonical_snapshot(snap)


class TestTelemetryMerge:
    def _bundle(self, worker_id, publishes):
        obs = Observability(stream=True)
        for i in range(publishes):
            obs.bus.publish("sync", float(i), spread_ms=1.0)
        obs.bus.alert(
            Alert(
                time_ms=float(worker_id),
                analyzer="stall",
                severity="critical",
                message=f"w{worker_id}",
            )
        )
        return worker_snapshot(obs, worker_id=worker_id)

    def test_drop_ledger_sums(self):
        a = self._bundle(0, publishes=DEFAULT_CAPACITY + 3)
        b = self._bundle(1, publishes=DEFAULT_CAPACITY + 2)
        merged = merge_two(a, b)
        # each ring holds DEFAULT_CAPACITY events: 3 + 2 evictions
        assert merged["telemetry"]["dropped"]["sync/evicted"] == 5
        assert (
            merged["telemetry"]["published"]["sync"]
            == 2 * DEFAULT_CAPACITY + 5
        )

    def test_alerts_union_sorted_and_tagged(self):
        a, b = self._bundle(1, publishes=1), self._bundle(0, publishes=1)
        merged = merge_two(a, b)
        alerts = merged["telemetry"]["alerts"]
        assert [al["worker"] for al in alerts] == [0, 1]
        assert all(al["analyzer"] == "stall" for al in alerts)


class TestToRegistry:
    def test_counter_and_histogram_round_trip(self):
        snaps = [
            worker_snapshot(_registry(5, 0.1), worker_id=0),
            worker_snapshot(_registry(7, 0.9), worker_id=1),
        ]
        registry = to_registry(merge_snapshots(snaps))
        assert registry.get("messages_total").total() == 12
        assert registry.get("sizes").count() == 2
        assert registry.get("fill").value(algorithm="st") == 0.9

    def test_prometheus_render_identical_for_both_merge_orders(self):
        a = worker_snapshot(_registry(5, 0.1), worker_id=0)
        b = worker_snapshot(_registry(7, 0.9), worker_id=1)
        text_ab = render_prometheus(to_registry(merge_two(a, b)))
        text_ba = render_prometheus(to_registry(merge_two(b, a)))
        assert text_ab == text_ba

    def test_large_merged_counter_renders_exactly(self):
        # %g-style formatting keeps 6 significant digits and would
        # corrupt fleet-scale totals; the exporter must print exact ints
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        reg_a.counter("big_total").inc(123_456_789)
        reg_b.counter("big_total").inc(987_654_321)
        merged = merge_two(
            worker_snapshot(reg_a, worker_id=0),
            worker_snapshot(reg_b, worker_id=1),
        )
        text = render_prometheus(to_registry(merged))
        assert "1111111110" in text

    def test_unknown_kind_rejected(self):
        snap = empty_snapshot()
        snap["metrics"]["x"] = {"kind": "summary", "samples": []}
        with pytest.raises(ValueError, match="unknown kind"):
            to_registry(snap)


class TestSnapshotIO:
    def test_write_read_round_trip(self, tmp_path):
        snap = worker_snapshot(_registry(5, 0.5), worker_id=0)
        path = write_snapshot(snap, tmp_path / "deep" / "snap.json")
        assert read_snapshot(path) == snap

    def test_read_rejects_wrong_schema(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"schema": "other/1"}')
        with pytest.raises(ValueError, match="expected schema"):
            read_snapshot(p)
