"""Tests for the pulse-coupled synchronization kernel."""

import numpy as np
import pytest

from repro.core.pulsesync import SparsePulseSyncKernel
from repro.oscillator.prc import LinearPRC
from repro.radio.fading import HashedRayleighFading
from tests.linkcsr import StreamModel, matrix_sync_kernel


def perfect_radio(n, power_dbm=-60.0):
    """All-pairs audible mean power matrix (identical powers)."""
    m = np.full((n, n), float(power_dbm))
    np.fill_diagonal(m, -np.inf)
    return m


def varied_radio(n, seed=0, base_dbm=-60.0, spread_db=25.0):
    """All-pairs audible with realistic per-link power variation.

    The capture policy needs power diversity; exactly-equal powers make
    every superposition undecodable forever (a real property the
    equal-power tests below rely on).
    """
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-spread_db, 0.0, size=(n, n))
    delta = (delta + delta.T) / 2.0
    m = base_dbm + delta
    np.fill_diagonal(m, -np.inf)
    return m


def kernel_for(
    n,
    adjacency=None,
    prc=None,
    fading=None,
    policy="tolerant",
    radio=None,
    **kwargs,
):
    return matrix_sync_kernel(
        perfect_radio(n) if radio is None else radio,
        adjacency,
        prc,
        fading=fading,
        collision_policy=policy,
        **kwargs,
    )


class TestBasicSync:
    def test_two_oscillators_synchronize(self):
        result = kernel_for(2).run(np.random.default_rng(1))
        assert result.converged
        assert result.final_spread_ms <= 2.0

    def test_mesh_population_synchronizes(self):
        result = kernel_for(30).run(np.random.default_rng(2))
        assert result.converged

    def test_chain_topology_synchronizes(self):
        n = 10
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n - 1):
            adj[i, i + 1] = adj[i + 1, i] = True
        result = kernel_for(n, adjacency=adj).run(np.random.default_rng(3))
        assert result.converged

    def test_single_active_node_trivially_synced(self):
        active = np.zeros(5, dtype=bool)
        active[2] = True
        result = kernel_for(5).run(np.random.default_rng(4), active=active)
        assert result.converged
        assert result.fires == 1

    def test_messages_equal_fires(self):
        result = kernel_for(10).run(np.random.default_rng(5))
        assert result.messages == result.fires

    def test_phases_identical_after_convergence(self):
        result = kernel_for(15).run(np.random.default_rng(6))
        phases = result.final_phase
        assert np.nanmax(phases) - np.nanmin(phases) <= 0.03


class TestPhysicalConstraints:
    def test_identical_phases_converge_first_instant(self):
        phases = np.full(8, 0.5)
        result = kernel_for(8).run(
            np.random.default_rng(7), initial_phases=phases
        )
        assert result.converged
        assert result.instants == 1

    def test_no_zero_time_network_avalanche(self):
        """One PRC per instant: widely-spread phases cannot collapse in one
        instant over a mesh (the unphysical cascade the kernel forbids)."""
        n = 40
        phases = np.linspace(0.0, 0.975, n)
        result = kernel_for(n).run(
            np.random.default_rng(8), initial_phases=phases
        )
        assert result.converged
        assert result.instants > 3

    def test_subset_active_only_those_fire(self):
        active = np.zeros(10, dtype=bool)
        active[:4] = True
        result = kernel_for(10).run(np.random.default_rng(9), active=active)
        assert result.converged
        phases = result.final_phase
        assert np.isnan(phases[4:]).all()
        assert not np.isnan(phases[:4]).any()

    def test_timeout_returns_not_converged(self):
        # zero-coupling PRC: phases never move toward each other
        noop = LinearPRC(1.0, 0.0)
        result = kernel_for(5, prc=noop).run(
            np.random.default_rng(10), max_time_ms=500.0
        )
        assert not result.converged
        assert result.time_ms <= 500.0 + 100.0


class TestCollisionPolicies:
    def test_tolerant_converges_even_with_equal_powers(self):
        result = kernel_for(8, policy="tolerant").run(np.random.default_rng(11))
        assert result.converged

    def test_capture_converges_with_power_diversity_and_fading(self):
        """Capture-policy sync needs *variation* — fading rotates which copy
        of a group superposition captures, letting groups merge."""
        kernel = kernel_for(
            8,
            radio=varied_radio(8, seed=11),
            policy="capture",
            fading=HashedRayleighFading(1),
        )
        result = kernel.run(np.random.default_rng(11), max_time_ms=120_000.0)
        assert result.converged

    def test_capture_without_fading_stalls_in_group_mute_plateau(self):
        """Without fading, synchronized groups are permanently undecodable
        superpositions under capture — the near-sync plateau persists."""
        kernel = kernel_for(8, radio=varied_radio(8, seed=11), policy="capture")
        result = kernel.run(np.random.default_rng(11), max_time_ms=30_000.0)
        assert not result.converged
        # ... but it got close: a small residual spread, not chaos
        assert result.final_spread_ms < 30.0

    def test_equal_power_superposition_is_undecodable(self):
        """With exactly equal powers, capture can never separate a clash —
        synchronized groups go mute to outsiders under 'capture'."""
        tol = kernel_for(12, policy="tolerant").run(np.random.default_rng(12))
        cap = kernel_for(12, policy="capture").run(
            np.random.default_rng(12), max_time_ms=20_000.0
        )
        assert tol.converged
        assert cap.time_ms >= tol.time_ms

    def test_destructive_never_faster_than_tolerant(self):
        tol = kernel_for(20, policy="tolerant").run(np.random.default_rng(12))
        dst = kernel_for(20, policy="destructive").run(
            np.random.default_rng(12), max_time_ms=20_000.0
        )
        assert dst.time_ms >= tol.time_ms


class TestFading:
    def test_fading_runs_still_converge(self):
        result = kernel_for(
            15, fading=HashedRayleighFading(17)
        ).run(np.random.default_rng(18), max_time_ms=120_000.0)
        assert result.converged


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            SparsePulseSyncKernel(
                np.array([0, 1, 2]),
                np.array([1, 0]),
                np.array([-60.0]),
                LinearPRC(1.1, 0.01),
                period_ms=100.0,
                threshold_dbm=-95.0,
            )

    def test_no_active_rejected(self):
        with pytest.raises(ValueError):
            kernel_for(3).run(
                np.random.default_rng(0), active=np.zeros(3, dtype=bool)
            )

    def test_bad_phases_rejected(self):
        with pytest.raises(ValueError):
            kernel_for(3).run(
                np.random.default_rng(0), initial_phases=np.array([0.0, 0.5, 1.0])
            )

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            kernel_for(3, policy="bogus")

    def test_stream_fading_rejected(self):
        with pytest.raises(TypeError, match="counter-based"):
            kernel_for(3, fading=StreamModel())
