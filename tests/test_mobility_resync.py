"""Tests for the mobility re-synchronization session."""

import numpy as np

from repro.core.config import PaperConfig
from repro.mobility.resync import MobilitySession
from repro.mobility.waypoint import RandomWaypoint
from repro.radio.link import LinkBudget
from repro.spanningtree.mst import maximum_spanning_tree


def make_session(n=25, side=80.0, seed=3):
    cfg = PaperConfig(n_devices=n, area_side_m=side, seed=seed)
    rng = np.random.default_rng(seed)
    mover = RandomWaypoint(
        rng.uniform(0, side, size=(n, 2)),
        side,
        speed_range_mps=(1.0, 3.0),
        pause_range_s=(0.0, 0.0),
        rng=np.random.default_rng(seed + 1),
    )
    return cfg, mover, MobilitySession(cfg, mover, seed=seed + 2)


class TestMobilitySession:
    def test_static_epoch_converges(self):
        _, _, session = make_session()
        epoch = session.run_epoch()
        assert epoch.converged
        assert epoch.epoch == 0
        assert epoch.tree_stability == 1.0  # no previous tree to differ from

    def test_epochs_accumulate(self):
        _, mover, session = make_session()
        for _ in range(3):
            mover.step(5.0)
            session.run_epoch()
        assert len(session.epochs) == 3
        assert [e.epoch for e in session.epochs] == [0, 1, 2]

    def test_motion_perturbs_tree(self):
        """Enough motion must change some tree edges (stability < 1)."""
        _, mover, session = make_session()
        session.run_epoch()
        for _ in range(30):
            mover.step(5.0)  # 150+ m of travel per device
        epoch = session.run_epoch()
        assert epoch.tree_stability < 1.0

    def test_no_motion_identical_tree(self):
        """The shadowing environment is frozen per session, so zero motion
        means identical weights and an identical tree."""
        _, _, session = make_session(seed=5)
        session.run_epoch()
        epoch = session.run_epoch()  # same positions
        assert epoch.tree_stability == 1.0

    def test_resync_cost_small(self):
        """Devices keep their clocks: re-sync costs ~one pulse per device."""
        cfg, mover, session = make_session()
        mover.step(5.0)
        epoch = session.run_epoch()
        assert epoch.converged
        assert epoch.resync_messages <= 5 * cfg.n_devices

    def test_mean_edge_length_positive(self):
        _, _, session = make_session()
        epoch = session.run_epoch()
        assert epoch.mean_tree_edge_m > 0.0


class TestHashedChannel:
    """Independent checks on the CSR epoch path."""

    def test_epoch_tree_is_kruskal_over_dense_view(self):
        """Each epoch's Borůvka tree is Kruskal's maximum spanning tree
        over a dense budget of the same hashed channel models."""
        _, mover, session = make_session()
        for epoch in range(3):
            if epoch:
                for _ in range(5):
                    mover.step(1.0)
            session.run_epoch()
            b = session.budget
            dense = LinkBudget(
                b.positions,
                b.pathloss,
                tx_power_dbm=b.tx_power_dbm,
                threshold_dbm=b.threshold_dbm,
                shadowing=b.shadowing,
                fading=b.fading,
            )
            adj = dense.adjacency()
            adj &= adj.T
            np.fill_diagonal(adj, False)
            weights = 0.5 * (dense.mean_rx_dbm + dense.mean_rx_dbm.T)
            tree = sorted((min(u, v), max(u, v)) for u, v in session.tree)
            assert tree == maximum_spanning_tree(weights, adj)

    def test_zero_motion_link_powers_bitwise(self):
        """Shadowing is keyed once per session: with no motion, two
        epochs see the same links with bitwise-equal powers, while the
        fading is re-keyed per epoch."""
        _, _, session = make_session(seed=5)
        session.run_epoch()
        first = session.budget
        session.run_epoch()
        second = session.budget
        assert np.array_equal(first.indptr, second.indptr)
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.power_dbm, second.power_dbm)
        assert np.array_equal(first.link_power_dbm, second.link_power_dbm)
        assert first.fading.key != second.fading.key
