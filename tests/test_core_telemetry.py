"""Tests for the pulse-sync kernel's ``sync`` probe series."""

import numpy as np
import pytest

from repro.obs import Observability
from repro.obs.probes import PROBE_INTERVAL_MS
from repro.oscillator.prc import LinearPRC
from tests.linkcsr import matrix_sync_kernel


@pytest.fixture(scope="module")
def observed_run():
    """A weakly coupled 20-node mesh: it locks over ~8 s of simulated
    time, long enough for several samples at the probe cadence."""
    n = 20
    m = np.full((n, n), -60.0)
    np.fill_diagonal(m, -np.inf)
    kernel = matrix_sync_kernel(m, prc=LinearPRC.from_dissipation(3.0, 0.005))
    obs = Observability()
    result = kernel.run(np.random.default_rng(2), obs=obs)
    return result, obs.probes


class TestTelemetry:
    def test_samples_cover_run(self, observed_run):
        result, probes = observed_run
        times = [t for t, _ in probes.series("sync", "fires")]
        assert len(times) >= 3
        assert times == sorted(times)
        assert times[-1] <= result.time_ms + 1e-9

    def test_sampling_interval_respected(self, observed_run):
        _, probes = observed_run
        times = [t for t, _ in probes.series("sync", "order_parameter")]
        # consecutive samples at least one interval apart (events are
        # discrete, so gaps can exceed but never undershoot)
        assert all(
            b - a >= PROBE_INTERVAL_MS - 1e-9 for a, b in zip(times, times[1:])
        )

    def test_order_parameter_climbs_to_one(self, observed_run):
        result, probes = observed_run
        assert result.converged
        r = [v for _, v in probes.series("sync", "order_parameter")]
        assert r[-1] > r[0]
        assert r[-1] > 0.95

    def test_groups_collapse_to_one(self, observed_run):
        _, probes = observed_run
        groups = [v for _, v in probes.series("sync", "sync_groups")]
        assert groups[-1] <= 2
        assert groups[0] >= groups[-1]

    def test_fires_monotone(self, observed_run):
        _, probes = observed_run
        fires = [v for _, v in probes.series("sync", "fires")]
        assert all(a <= b for a, b in zip(fires, fires[1:]))
