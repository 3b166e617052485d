"""Tests for slotted beacon discovery."""

import numpy as np
import pytest

from repro.core.beacon import SparseBeaconDiscovery, top_k_required_csr
from repro.radio.fading import HashedRayleighFading
from tests.linkcsr import MatrixLinkBudget, StreamModel, edge_mask, edge_matrix


def varied_radio(n, seed=0, base_dbm=-60.0, spread_db=25.0):
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-spread_db, 0.0, size=(n, n))
    delta = (delta + delta.T) / 2.0
    m = base_dbm + delta
    np.fill_diagonal(m, -np.inf)
    return m


def make_discovery(
    mean_rx, preambles=4, fading=None, period_slots=100, links=None, **kwargs
):
    budget = MatrixLinkBudget(
        mean_rx, threshold_dbm=-95.0, fading=fading, links=links
    )
    return SparseBeaconDiscovery(
        budget,
        threshold_dbm=-95.0,
        period_slots=period_slots,
        slot_ms=1.0,
        preambles=preambles,
        **kwargs,
    )


def run_pairs(disc, rng, required, **kwargs):
    """Run over a ``[receiver, sender]`` requirement matrix; returns the
    result with ``decoded`` as the same kind of matrix."""
    if kwargs.get("decoded") is not None:
        kwargs["decoded"] = edge_mask(disc.budget, kwargs["decoded"])
    result = disc.run(rng, edge_mask(disc.budget, required), **kwargs)
    result.decoded = edge_matrix(disc.budget, result.decoded)
    return result


def top_k(mean_rx, k):
    """``[receiver, sender]`` top-k requirement over a matrix radio."""
    budget = MatrixLinkBudget(mean_rx, threshold_dbm=-95.0)
    return edge_matrix(budget, top_k_required_csr(budget, k=k))


class TestDiscovery:
    def test_full_mesh_discovery_completes(self):
        n = 12
        disc = make_discovery(varied_radio(n, 1))
        result = run_pairs(
            disc, np.random.default_rng(1), ~np.eye(n, dtype=bool), max_periods=200
        )
        assert result.complete
        assert result.missing_pairs == 0
        assert (result.decoded | np.eye(n, dtype=bool)).all()

    def test_sparse_requirement_faster_than_full(self):
        n = 30
        mean_rx = varied_radio(n, 2)
        full = run_pairs(
            make_discovery(mean_rx),
            np.random.default_rng(3),
            ~np.eye(n, dtype=bool),
            max_periods=500,
        )
        top1 = run_pairs(
            make_discovery(mean_rx),
            np.random.default_rng(3),
            top_k(mean_rx, 1),
            max_periods=500,
        )
        assert top1.complete and full.complete
        assert top1.periods <= full.periods

    def test_time_and_messages_consistent(self):
        n = 10
        disc = make_discovery(varied_radio(n, 4))
        result = run_pairs(
            disc, np.random.default_rng(4), ~np.eye(n, dtype=bool), max_periods=200
        )
        assert result.time_ms == result.periods * 100.0
        assert result.messages == result.periods * n

    def test_empty_requirement_completes_immediately(self):
        n = 5
        disc = make_discovery(varied_radio(n, 5))
        result = run_pairs(
            disc, np.random.default_rng(5), np.zeros((n, n), dtype=bool)
        )
        assert result.complete
        assert result.periods == 0
        assert result.messages == 0

    def test_undetectable_pair_never_completes(self):
        mean_rx = varied_radio(4, 6)
        mean_rx[0, 3] = mean_rx[3, 0] = -150.0  # below threshold forever
        required = np.zeros((4, 4), dtype=bool)
        required[0, 3] = True
        # keep the dead pair in the radio graph so it can be required
        result = run_pairs(
            make_discovery(mean_rx, links=np.isfinite(mean_rx)),
            np.random.default_rng(6),
            required,
            max_periods=50,
        )
        assert not result.complete
        assert result.missing_pairs == 1

    def test_continuation_from_prior_state(self):
        n = 8
        mean_rx = varied_radio(n, 7)
        required = ~np.eye(n, dtype=bool)
        first = run_pairs(
            make_discovery(mean_rx),
            np.random.default_rng(7),
            required,
            max_periods=1,
        )
        cont = run_pairs(
            make_discovery(mean_rx), np.random.default_rng(8),
            required,
            max_periods=200,
            decoded=first.decoded,
        )
        assert cont.complete

    def test_fading_runs_complete(self):
        n = 10
        disc = make_discovery(varied_radio(n, 9), fading=HashedRayleighFading(9))
        result = run_pairs(
            disc, np.random.default_rng(9), ~np.eye(n, dtype=bool), max_periods=500
        )
        assert result.complete


class TestCollisionPhysics:
    def test_more_preambles_never_slower(self):
        n = 60
        mean_rx = varied_radio(n, 10, spread_db=35.0)
        required = ~np.eye(n, dtype=bool)
        slow = run_pairs(
            make_discovery(mean_rx, preambles=1),
            np.random.default_rng(10),
            required,
            max_periods=3000,
        )
        fast = run_pairs(
            make_discovery(mean_rx, preambles=16),
            np.random.default_rng(10),
            required,
            max_periods=3000,
        )
        assert fast.periods <= slow.periods

    def test_half_duplex_no_self_decode(self):
        n = 6
        result = run_pairs(
            make_discovery(varied_radio(n, 11)),
            np.random.default_rng(11),
            ~np.eye(n, dtype=bool),
            max_periods=200,
        )
        assert not result.decoded.diagonal().any()

    @pytest.mark.parametrize("n", [2, 3])
    def test_half_duplex_same_cohort_never_decodes(self, n):
        """One slot and one preamble put every device in the same cohort
        every period: each transmits while the others do, so nobody ever
        hears anybody — even though every pair is a strong, uncontested
        link for the receiver (one other transmitter in range for n = 2)."""
        disc = make_discovery(varied_radio(n, 12), preambles=1, period_slots=1)
        result = run_pairs(
            disc, np.random.default_rng(12), ~np.eye(n, dtype=bool), max_periods=20
        )
        assert result.periods == 20
        assert not result.complete
        assert not result.decoded.any()
        assert result.missing_pairs == n * (n - 1)


class TestDutyCycling:
    def test_lower_duty_slower_discovery(self):
        n = 20
        mean_rx = varied_radio(n, 20)
        required = ~np.eye(n, dtype=bool)
        results = {}
        for duty in (1.0, 0.3):
            disc = make_discovery(mean_rx, listen_duty=duty)
            results[duty] = run_pairs(
                disc, np.random.default_rng(20), required, max_periods=1000
            )
        assert results[1.0].complete and results[0.3].complete
        assert results[0.3].periods > results[1.0].periods

    def test_duty_one_is_default_behaviour(self):
        n = 10
        mean_rx = varied_radio(n, 21)
        required = ~np.eye(n, dtype=bool)
        a = run_pairs(
            make_discovery(mean_rx),
            np.random.default_rng(21),
            required,
            max_periods=200,
        )
        b = run_pairs(
            make_discovery(mean_rx, listen_duty=1.0),
            np.random.default_rng(21),
            required,
            max_periods=200,
        )
        assert a.periods == b.periods

    def test_tiny_duty_still_completes_eventually(self):
        n = 8
        disc = make_discovery(varied_radio(n, 22), listen_duty=0.1)
        result = run_pairs(
            disc, np.random.default_rng(22), ~np.eye(n, dtype=bool), max_periods=2000
        )
        assert result.complete

    def test_bad_duty_rejected(self):
        for duty in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                make_discovery(varied_radio(3, 0), listen_duty=duty)


class TestTopKRequired:
    def test_one_per_row(self):
        req = top_k(varied_radio(10, 12), 1)
        assert np.all(req.sum(axis=1) == 1)

    def test_selects_heaviest(self):
        w = np.array(
            [[-np.inf, -50.0, -80.0], [-50.0, -np.inf, -60.0], [-80.0, -60.0, -np.inf]]
        )
        req = top_k(w, 1)
        assert req[0, 1] and req[2, 1]

    def test_k_two(self):
        req = top_k(varied_radio(8, 13), 2)
        assert np.all(req.sum(axis=1) == 2)

    def test_isolated_node_requires_nothing(self):
        w = varied_radio(4, 14)
        adj = np.zeros((4, 4), dtype=bool)
        adj[1, 2] = adj[2, 1] = True
        req = top_k(np.where(adj, w, -np.inf), 1)
        assert req[0].sum() == 0 and req[3].sum() == 0
        assert req[1, 2] and req[2, 1]

    def test_validation(self):
        budget = MatrixLinkBudget(varied_radio(3, 0))
        with pytest.raises(ValueError):
            top_k_required_csr(budget, k=0)


class TestValidation:
    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            MatrixLinkBudget(np.zeros((2, 3)))
        disc = make_discovery(varied_radio(3, 0))
        with pytest.raises(ValueError):
            disc.run(np.random.default_rng(0), np.zeros(2, dtype=bool))

    def test_bad_parameters(self):
        budget = MatrixLinkBudget(varied_radio(3, 0))
        with pytest.raises(ValueError):
            SparseBeaconDiscovery(budget, threshold_dbm=-95.0, period_slots=0)
        with pytest.raises(ValueError):
            SparseBeaconDiscovery(
                budget, threshold_dbm=-95.0, period_slots=10, slot_ms=0.0
            )
        with pytest.raises(ValueError):
            SparseBeaconDiscovery(
                budget, threshold_dbm=-95.0, period_slots=10, preambles=0
            )
        # stream fading cannot be evaluated per edge
        with pytest.raises(TypeError):
            SparseBeaconDiscovery(
                budget,
                threshold_dbm=-95.0,
                period_slots=10,
                fading=StreamModel(),
            )
