"""Tests for the run-scoped metrics registry."""

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("msgs")
        c.inc(3, algorithm="st")
        c.inc(2, algorithm="st")
        c.inc(5, algorithm="fst")
        assert c.value(algorithm="st") == 5
        assert c.value(algorithm="fst") == 5
        assert c.value(algorithm="other") == 0

    def test_negative_increment_raises(self):
        c = Counter("msgs")
        with pytest.raises(ValueError, match="monotonic"):
            c.inc(-1)

    def test_label_order_is_canonical(self):
        c = Counter("msgs")
        c.inc(1, a="x", b="y")
        c.inc(1, b="y", a="x")
        assert c.value(a="x", b="y") == 2

    def test_label_values_stringified(self):
        c = Counter("msgs")
        c.inc(1, phase=3)
        assert c.value(phase="3") == 1
        assert c.value(phase=3) == 1

    def test_total_matches_subset(self):
        c = Counter("msgs")
        c.inc(10, algorithm="st", kind="discovery")
        c.inc(4, algorithm="st", kind="handshake")
        c.inc(7, algorithm="fst", kind="sync_pulse")
        assert c.total() == 21
        assert c.total(algorithm="st") == 14
        assert c.total(kind="handshake") == 4

    def test_breakdown_by_label(self):
        c = Counter("msgs")
        c.inc(10, algorithm="st", kind="discovery")
        c.inc(4, algorithm="st", kind="handshake")
        c.inc(7, algorithm="fst", kind="discovery")
        assert c.breakdown("kind", algorithm="st") == {
            "discovery": 10,
            "handshake": 4,
        }
        assert c.breakdown("algorithm") == {"st": 14, "fst": 7}


class TestGauge:
    def test_set_add_value(self):
        g = Gauge("pending")
        g.set(5)
        g.add(-2)
        assert g.value() == 3

    def test_set_max_keeps_high_water_mark(self):
        g = Gauge("depth")
        g.set_max(3)
        g.set_max(10)
        g.set_max(7)
        assert g.value() == 10

    def test_labelled_samples_independent(self):
        g = Gauge("fill")
        g.set(0.5, algorithm="st")
        g.set(0.9, algorithm="fst")
        assert g.value(algorithm="st") == 0.5
        assert g.value(algorithm="fst") == 0.9


class TestHistogram:
    def test_observe_counts_and_sum(self):
        h = Histogram("sizes", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 3, 7, 100):
            h.observe(v)
        assert h.count() == 4
        assert h.sum_() == pytest.approx(110.5)

    def test_bucket_counts_are_cumulative(self):
        h = Histogram("sizes", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 3, 7, 100):
            h.observe(v)
        counts = dict(h.bucket_counts())
        assert counts["1.0"] == 1
        assert counts["5.0"] == 2
        assert counts["10.0"] == 3
        assert counts["+inf"] == 4

    def test_boundary_value_falls_in_le_bucket(self):
        h = Histogram("sizes", buckets=(5.0, 10.0))
        h.observe(5.0)
        counts = dict(h.bucket_counts())
        assert counts["5.0"] == 1

    def test_invalid_buckets_raise(self):
        with pytest.raises(ValueError, match="ascend"):
            Histogram("h", buckets=(5.0, 5.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", buckets=())
        with pytest.raises(ValueError, match="finite"):
            Histogram("h", buckets=(1.0, float("inf")))

    def test_default_buckets(self):
        h = Histogram("h")
        assert h.buckets == DEFAULT_BUCKETS

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [5.0],
            # on a bound, between bounds, above the last bound, fractions
            [1.0, 5.0, 10.0, 0.5, 3, 7, 100, 10.000001, 0.1, 0.2, 0.3],
            list(range(40)) + [2, 2, 13, 1e9],
        ],
    )
    def test_observe_many_equals_looped_observe(self, values):
        looped = Histogram("h", buckets=(1.0, 5.0, 10.0))
        batched = Histogram("h", buckets=(1.0, 5.0, 10.0))
        one, many = looped.bound(k="a"), batched.bound(k="a")
        one.observe(0.7)  # both start from the same non-empty sample
        many.observe(0.7)
        for v in values:
            one.observe(v)
        many.observe_many(np.asarray(values))
        assert batched.bucket_counts(k="a") == looped.bucket_counts(k="a")
        assert batched.count(k="a") == looped.count(k="a")
        assert batched.sum_(k="a") == looped.sum_(k="a")  # bitwise


class TestHistogramMerge:
    def test_merge_adds_bucket_wise(self):
        a = Histogram("h", buckets=(1.0, 5.0))
        b = Histogram("h", buckets=(1.0, 5.0))
        a.observe(0.5, algorithm="st")
        b.observe(3.0, algorithm="st")
        b.observe(99.0, algorithm="st")
        a.merge(b)
        assert a.count(algorithm="st") == 3
        assert a.sum_(algorithm="st") == pytest.approx(102.5)
        assert dict(a.bucket_counts(algorithm="st")) == {
            "1.0": 1,
            "5.0": 2,
            "+inf": 3,
        }

    def test_merge_keeps_disjoint_label_sets(self):
        a = Histogram("h", buckets=(1.0,))
        b = Histogram("h", buckets=(1.0,))
        a.observe(0.5, algorithm="st")
        b.observe(0.5, algorithm="fst")
        a.merge(b)
        assert a.count(algorithm="st") == 1
        assert a.count(algorithm="fst") == 1

    def test_merge_with_empty_other_is_noop(self):
        a = Histogram("h", buckets=(1.0,))
        a.observe(0.5)
        before = a.samples()
        a.merge(Histogram("h", buckets=(1.0,)))
        assert a.samples() == before

    def test_merge_into_empty_copies(self):
        a = Histogram("h", buckets=(1.0,))
        b = Histogram("h", buckets=(1.0,))
        b.observe(0.5)
        b.observe(2.0)
        a.merge(b)
        assert a.samples() == b.samples()

    def test_mismatched_buckets_raise(self):
        a = Histogram("h", buckets=(1.0, 5.0))
        b = Histogram("h", buckets=(1.0, 9.0))
        with pytest.raises(ValueError, match="misaligned buckets"):
            a.merge(b)

    def test_non_histogram_raises(self):
        with pytest.raises(TypeError):
            Histogram("h", buckets=(1.0,)).merge(Counter("c"))

    def test_load_samples_round_trips_raw_counts(self):
        h = Histogram("h", buckets=(1.0, 5.0))
        h.load_samples([({"algorithm": "st"}, [1, 2, 3], 50.0, 6)])
        assert h.count(algorithm="st") == 6
        assert h.sum_(algorithm="st") == 50.0
        assert dict(h.bucket_counts(algorithm="st")) == {
            "1.0": 1,
            "5.0": 3,
            "+inf": 6,
        }

    def test_load_samples_wrong_width_raises(self):
        h = Histogram("h", buckets=(1.0, 5.0))
        with pytest.raises(ValueError, match="buckets"):
            h.load_samples([({}, [1, 2], 0.0, 3)])


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("messages_total")
        b = reg.counter("messages_total")
        assert a is b

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("messages_total")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("messages_total")

    def test_invalid_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("bad name!")

    def test_names_sorted_and_iter(self):
        reg = MetricsRegistry()
        reg.gauge("zeta")
        reg.counter("alpha")
        assert reg.names() == ["alpha", "zeta"]
        assert [m.name for m in reg] == ["alpha", "zeta"]
        assert len(reg) == 2

    def test_snapshot_is_json_safe(self):
        import json

        reg = MetricsRegistry()
        reg.counter("msgs", help="h", unit="messages").inc(2, kind="x")
        reg.gauge("fill").set(0.5)
        reg.histogram("sizes", buckets=(1.0, 2.0)).observe(1.5)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["msgs"]["type"] == "counter"
        assert snap["msgs"]["samples"] == [
            {"labels": {"kind": "x"}, "value": 2}
        ]
        assert snap["sizes"]["samples"][0]["count"] == 1

    def test_reset_keeps_definitions(self):
        reg = MetricsRegistry()
        c = reg.counter("msgs")
        c.inc(5)
        reg.reset()
        assert reg.get("msgs") is c
        assert c.value() == 0


class TestBoundViews:
    """Hot-loop fast paths: label key resolved once, semantics unchanged."""

    def test_bound_counter_matches_labelled_inc(self):
        from repro.obs.metrics import Counter

        a, b = Counter("a"), Counter("b")
        bound = a.bound(algorithm="st", kind="ps")
        for k in (1, 2, 3):
            bound.inc(k)
            b.inc(k, algorithm="st", kind="ps")
        assert a.samples() == b.samples()
        assert a.value(algorithm="st", kind="ps") == 6

    def test_bound_counter_stays_monotonic(self):
        from repro.obs.metrics import Counter

        bound = Counter("c").bound()
        with pytest.raises(ValueError):
            bound.inc(-1)

    def test_bound_histogram_matches_labelled_observe(self):
        from repro.obs.metrics import Histogram

        a = Histogram("a", buckets=(1.0, 5.0))
        b = Histogram("b", buckets=(1.0, 5.0))
        bound = a.bound(algorithm="st")
        for v in (0.5, 3.0, 99.0):
            bound.observe(v)
            b.observe(v, algorithm="st")
        assert a.samples() == b.samples()
        assert a.bucket_counts(algorithm="st") == [
            ("1.0", 1), ("5.0", 2), ("+inf", 3),
        ]

    def test_bound_histogram_shares_sample_with_labelled_path(self):
        from repro.obs.metrics import Histogram

        h = Histogram("h", buckets=(10.0,))
        bound = h.bound(kind="wave")
        bound.observe(1.0)
        h.observe(2.0, kind="wave")
        assert h.count(kind="wave") == 2
        assert h.sum_(kind="wave") == 3.0
