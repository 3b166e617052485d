"""Tests for the link budget."""

import numpy as np
import pytest

from repro.radio.fading import HashedRayleighFading
from repro.radio.link import LinkBudget
from repro.radio.pathloss import PaperPathLoss
from repro.radio.shadowing import HashedShadowing


def make_budget(positions, **kwargs):
    return LinkBudget(np.asarray(positions, dtype=float), PaperPathLoss(), **kwargs)


class TestMeanPower:
    def test_two_devices_symmetric(self):
        budget = make_budget([[0.0, 0.0], [10.0, 0.0]])
        assert budget.mean_power_dbm(0, 1) == pytest.approx(
            budget.mean_power_dbm(1, 0)
        )

    def test_mean_power_formula(self):
        budget = make_budget([[0.0, 0.0], [10.0, 0.0]], tx_power_dbm=23.0)
        expected = 23.0 - (40.0 + 40.0 * np.log10(10.0))
        assert budget.mean_power_dbm(0, 1) == pytest.approx(expected)

    def test_diagonal_is_minus_inf(self):
        budget = make_budget([[0.0, 0.0], [5.0, 0.0]])
        assert budget.mean_power_dbm(0, 0) == -np.inf

    def test_closer_is_stronger(self):
        budget = make_budget([[0.0, 0.0], [5.0, 0.0], [50.0, 0.0]])
        assert budget.mean_power_dbm(0, 1) > budget.mean_power_dbm(0, 2)

    def test_shadowing_shifts_power(self):
        pos = [[0.0, 0.0], [10.0, 0.0]]
        plain = make_budget(pos)
        shadowed = make_budget(
            pos, shadowing=HashedShadowing(10.0, key=1)
        )
        assert shadowed.mean_power_dbm(0, 1) != plain.mean_power_dbm(0, 1)


class TestAdjacency:
    def test_in_range_pair_connected(self):
        budget = make_budget([[0.0, 0.0], [20.0, 0.0]], threshold_dbm=-95.0)
        assert budget.adjacency()[0, 1]

    def test_out_of_range_pair_disconnected(self):
        budget = make_budget([[0.0, 0.0], [500.0, 0.0]], threshold_dbm=-95.0)
        assert not budget.adjacency()[0, 1]

    def test_margin_shrinks_adjacency(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 150, size=(40, 2))
        budget = make_budget(pos)
        plain = budget.adjacency().sum()
        tight = budget.adjacency(margin_db=20.0).sum()
        assert tight < plain

    def test_no_self_loops(self):
        budget = make_budget([[0.0, 0.0], [5.0, 0.0]])
        assert not budget.adjacency().diagonal().any()


def faded_budget(key=11):
    """30 devices on a 150 m square with hashed Rayleigh fading."""
    pos = np.random.default_rng(key).uniform(0, 150, size=(30, 2))
    return make_budget(pos, fading=HashedRayleighFading(key))


class TestBroadcast:
    def test_no_fading_matches_mean(self):
        budget = make_budget([[0.0, 0.0], [10.0, 0.0]])
        power, detected = budget.broadcast_power(0, 0)
        assert np.flatnonzero(detected).tolist() == [1]
        assert power[1] == pytest.approx(budget.mean_power_dbm(0, 1))

    def test_sender_never_receives_itself(self):
        budget = make_budget([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        _, detected = budget.broadcast_power(1, 0)
        assert not detected[1] and detected[0] and detected[2]

    def test_fading_makes_marginal_link_flaky(self):
        # place at ~the exact threshold range so fading decides detection
        budget = LinkBudget(
            np.array([[0.0, 0.0], [89.0, 0.0]]),
            PaperPathLoss(),
            fading=HashedRayleighFading(7),
        )
        outcomes = [int(budget.broadcast_power(0, e)[1].sum()) for e in range(300)]
        assert 0 < sum(outcomes) < 300  # sometimes heard, sometimes not

    def test_broadcast_power_vector_form(self):
        budget = make_budget([[0.0, 0.0], [10.0, 0.0], [400.0, 0.0]])
        power, detected = budget.broadcast_power(0, 0)
        assert power.shape == (3,) and detected.shape == (3,)
        assert detected[1] and not detected[2] and not detected[0]

    def test_bad_tx_index(self):
        budget = make_budget([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(IndexError):
            budget.broadcast_power(5, 0)

    def test_same_event_replays_bitwise(self):
        budget = faded_budget()
        a_power, a_det = budget.broadcast_power(3, 42)
        b_power, b_det = faded_budget().broadcast_power(3, 42)
        assert np.array_equal(a_power, b_power)
        assert np.array_equal(a_det, b_det)

    def test_distinct_events_differ(self):
        budget = faded_budget()
        first, _ = budget.broadcast_power(3, 0)
        second, _ = budget.broadcast_power(3, 1)
        others = np.arange(budget.n) != 3
        assert np.all(first[others] != second[others])

    def test_detected_power_is_mean_plus_hashed_fade(self):
        budget = faded_budget()
        rx = np.arange(budget.n)
        for tx, event in [(0, 0), (3, 5), (29, 17)]:
            power, detected = budget.broadcast_power(tx, event)
            expected = budget.mean_rx_dbm[tx] + budget.fading.link_db(event, tx, rx)
            assert detected.any()
            assert np.array_equal(power[detected], expected[detected])
            assert np.all(power[detected] >= budget.threshold_dbm)
            assert not detected[tx]


class TestValidation:
    def test_bad_positions_shape(self):
        with pytest.raises(ValueError, match="shape"):
            LinkBudget(np.zeros((3, 3)), PaperPathLoss())

    def test_distance_matrix(self):
        budget = make_budget([[0.0, 0.0], [3.0, 4.0]])
        assert budget.distance_m[0, 1] == pytest.approx(5.0)
