"""Tests for timeline reconstruction."""

import numpy as np
import pytest

from repro.analysis.timeline import (
    fire_timeline,
    fires_per_node,
    inter_fire_intervals,
    locking_summary,
    peak_concurrency,
)
from repro.obs import Observability
from repro.sim.trace import TraceRecorder
from tests.linkcsr import matrix_sync_kernel


@pytest.fixture(scope="module")
def traced_run():
    n = 12
    m = np.full((n, n), -60.0)
    np.fill_diagonal(m, -np.inf)
    obs = Observability(keep_trace=True)
    result = matrix_sync_kernel(m).run(np.random.default_rng(5), obs=obs)
    return obs.trace, result, n


class TestTimeline:
    def test_total_matches_fires(self, traced_run):
        trace, result, _ = traced_run
        timeline = fire_timeline(trace)
        assert sum(count for _, count in timeline) == result.fires

    def test_buckets_sorted(self, traced_run):
        trace, _, _ = traced_run
        starts = [t for t, _ in fire_timeline(trace, bucket_ms=5.0)]
        assert starts == sorted(starts)

    def test_fires_per_node_covers_everyone(self, traced_run):
        trace, result, n = traced_run
        per_node = fires_per_node(trace)
        assert set(per_node) == set(range(n))
        assert sum(per_node.values()) == result.fires

    def test_peak_concurrency_at_sync(self, traced_run):
        """After lock, the whole population fires in one slot bucket."""
        trace, _, n = traced_run
        _, peak = peak_concurrency(trace)
        assert peak == n

    def test_intervals_compressed_by_prc(self, traced_run):
        """While locking, every received pulse advances the phase, so
        inter-fire intervals sit *below* the free-running period and never
        above it (pulses only ever shorten the cycle)."""
        trace, _, _ = traced_run
        intervals = inter_fire_intervals(trace)
        all_gaps = [g for gaps in intervals.values() for g in gaps]
        assert all_gaps
        assert all(g <= 100.0 + 1e-6 for g in all_gaps)
        assert np.median(all_gaps) > 50.0

    def test_locking_summary(self, traced_run):
        trace, _, _ = traced_run
        summary = locking_summary(trace, period_ms=100.0)
        assert summary["count"] > 0
        # compressed toward (but below) the period, with tight spread
        assert 60.0 <= summary["median_ms"] <= 100.0
        assert summary["cv"] < 0.25

    def test_empty_trace_errors(self):
        with pytest.raises(ValueError):
            peak_concurrency(TraceRecorder())

    def test_validation(self, traced_run):
        trace, _, _ = traced_run
        with pytest.raises(ValueError):
            fire_timeline(trace, bucket_ms=0.0)
        with pytest.raises(ValueError):
            locking_summary(trace, period_ms=0.0)
