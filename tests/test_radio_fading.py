"""Tests for fast fading models."""

import numpy as np

from repro.radio.fading import FADE_CAP_DB, HashedRayleighFading, NoFading
from repro.radio.link import LinkBudget
from repro.radio.pathloss import PaperPathLoss


def draws(key: int, size: int) -> np.ndarray:
    """``size`` hashed dB draws: one event, one sender, many receivers."""
    return HashedRayleighFading(key).link_db(0, 0, np.arange(1, size + 1))


class TestRayleighFading:
    def test_shapes(self):
        fad = HashedRayleighFading(1)
        assert fad.link_db(0, 0, np.arange(7)).shape == (7,)
        tx = np.arange(4)[:, None]
        rx = np.arange(5)[None, :]
        assert fad.link_db(0, tx, rx).shape == (4, 5)

    def test_unit_mean_linear_power(self):
        """Exp(1) power gain → linear-domain mean 1 (energy conserved),
        less what the up-fade cap clips: E[min(g, c)] = 1 − e^(−c)."""
        db = draws(2, 200_000)
        linear = np.power(10.0, db / 10.0)
        cap = 10.0 ** (FADE_CAP_DB / 10.0)
        assert abs(linear.mean() - (1.0 - np.exp(-cap))) < 0.02

    def test_mean_db_matches_euler_gamma(self):
        """E[10·log10(Exp(1))] = −10·γ/ln10 ≈ −2.507 dB."""
        db = draws(3, 200_000)
        assert abs(db.mean() - (-2.507)) < 0.05

    def test_deep_fades_more_common_than_upfades(self):
        db = draws(4, 100_000)
        assert (db < -10.0).mean() > (db > 10.0).mean()
        assert db.max() <= FADE_CAP_DB

    def test_no_infinities(self):
        assert np.all(np.isfinite(draws(5, 100_000)))

    def test_deterministic_for_seed(self):
        assert np.array_equal(draws(6, 10), draws(6, 10))


class TestNoFading:
    def test_all_zero(self):
        """The oracle channel adds nothing: broadcast power is the mean."""
        budget = LinkBudget(
            np.array([[0.0, 0.0], [10.0, 0.0], [30.0, 0.0]]),
            PaperPathLoss(),
            fading=NoFading(),
        )
        for event in (0, 1, 7):
            power, _ = budget.broadcast_power(0, event)
            assert np.array_equal(power, budget.mean_rx_dbm[0])
