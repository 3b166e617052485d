"""Tests for pulse-sync telemetry sampling."""

import numpy as np
import pytest

from tests.linkcsr import matrix_sync_kernel


def kernel_for(n):
    m = np.full((n, n), -60.0)
    np.fill_diagonal(m, -np.inf)
    return matrix_sync_kernel(m)


class TestTelemetry:
    def test_disabled_by_default(self):
        result = kernel_for(10).run(np.random.default_rng(1))
        assert result.telemetry == []

    def test_samples_cover_run(self):
        result = kernel_for(20).run(
            np.random.default_rng(2), telemetry_interval_ms=50.0
        )
        assert result.telemetry
        times = [s.time_ms for s in result.telemetry]
        assert times == sorted(times)
        assert times[-1] <= result.time_ms + 1e-9

    def test_sampling_interval_respected(self):
        result = kernel_for(20).run(
            np.random.default_rng(3), telemetry_interval_ms=40.0
        )
        times = [s.time_ms for s in result.telemetry]
        # consecutive samples at least one interval apart (events are
        # discrete, so gaps can exceed but never undershoot)
        assert all(b - a >= 40.0 - 1e-9 for a, b in zip(times, times[1:]))

    def test_order_parameter_climbs_to_one(self):
        result = kernel_for(25).run(
            np.random.default_rng(4), telemetry_interval_ms=25.0
        )
        assert result.converged
        first = result.telemetry[0].order_parameter
        last = result.telemetry[-1].order_parameter
        assert last > first
        assert last > 0.95

    def test_groups_collapse_to_one(self):
        result = kernel_for(25).run(
            np.random.default_rng(5), telemetry_interval_ms=25.0
        )
        assert result.telemetry[-1].sync_groups <= 2
        assert result.telemetry[0].sync_groups >= result.telemetry[-1].sync_groups

    def test_fires_monotone(self):
        result = kernel_for(15).run(
            np.random.default_rng(6), telemetry_interval_ms=30.0
        )
        fires = [s.fires_so_far for s in result.telemetry]
        assert all(a <= b for a, b in zip(fires, fires[1:]))

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            kernel_for(5).run(
                np.random.default_rng(7), telemetry_interval_ms=0.0
            )
