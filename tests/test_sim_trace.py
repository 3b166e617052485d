"""Tests for the trace recorder."""

import pytest

from repro.sim.trace import TraceRecorder


class TestTraceRecorder:
    def test_emit_and_count(self):
        tr = TraceRecorder()
        tr.emit(1.0, "tx", node=1)
        tr.emit(2.0, "tx", node=2)
        tr.emit(2.0, "rx", node=3)
        assert tr.count("tx") == 2
        assert tr.count("rx") == 1
        assert tr.count("nothing") == 0

    def test_total_all_and_subset(self):
        tr = TraceRecorder()
        for cat in ("a", "a", "b", "c"):
            tr.emit(0.0, cat)
        assert tr.total() == 4
        assert tr.total("a", "c") == 3

    def test_records_filtered_by_category(self):
        tr = TraceRecorder()
        tr.emit(1.0, "tx", node=5)
        tr.emit(2.0, "rx", node=6)
        recs = tr.records("tx")
        assert len(recs) == 1
        assert recs[0].time == 1.0
        assert recs[0]["node"] == 5

    def test_len_and_iter(self):
        tr = TraceRecorder()
        tr.emit(1.0, "x")
        tr.emit(2.0, "y")
        assert len(tr) == 2
        assert [r.category for r in tr] == ["x", "y"]

    def test_categories_sorted(self):
        tr = TraceRecorder()
        tr.emit(0.0, "zeta")
        tr.emit(0.0, "alpha")
        assert tr.categories == ["alpha", "zeta"]

    def test_category_index_matches_linear_filter(self):
        tr = TraceRecorder()
        for i in range(30):
            tr.emit(float(i), ("tx", "rx", "merge")[i % 3], i=i)
        for cat in ("tx", "rx", "merge"):
            assert tr.records(cat) == [r for r in tr if r.category == cat]
        assert tr.records("absent") == []

    def test_category_index_cleared(self):
        tr = TraceRecorder()
        tr.emit(0.0, "tx")
        tr.clear()
        assert tr.records("tx") == []
        tr.emit(1.0, "tx")
        assert len(tr.records("tx")) == 1

    def test_clear_resets_everything(self):
        tr = TraceRecorder()
        tr.emit(0.0, "tx")
        tr.clear()
        assert len(tr) == 0
        assert tr.records() == []

    def test_record_data_access(self):
        tr = TraceRecorder()
        tr.emit(3.0, "merge", u=1, v=2)
        rec = tr.records()[0]
        assert rec["u"] == 1 and rec["v"] == 2
        with pytest.raises(KeyError):
            rec["missing"]
