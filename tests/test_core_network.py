"""Tests for D2DNetwork assembly."""

import networkx as nx
import numpy as np
import pytest

from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.sim.random import RandomStreams


@pytest.fixture(scope="module")
def network():
    return D2DNetwork(PaperConfig(seed=1))


class TestAssembly:
    def test_positions_in_area(self, network):
        side = network.config.area_side_m
        assert np.all((network.positions >= 0) & (network.positions <= side))

    def test_adjacency_symmetric_no_selfloops(self, network):
        sb = network.sparse_budget
        pairs = set(zip(sb.link_row_ids.tolist(), sb.link_indices.tolist()))
        assert pairs == {(v, u) for u, v in pairs}
        assert all(u != v for u, v in pairs)
        # the dense helper view is exactly the link CSR
        dense = np.zeros((network.n, network.n), dtype=bool)
        dense[sb.link_row_ids, sb.link_indices] = True
        assert np.array_equal(network.adjacency, dense)

    def test_weights_symmetric(self, network):
        sb = network.sparse_budget
        back = sb.edge_power_lookup(sb.link_indices, sb.link_row_ids)
        assert np.array_equal(sb.link_power_dbm, back)
        # dense helper weights carry the link powers bitwise
        assert np.array_equal(
            network.weights[sb.link_row_ids, sb.link_indices], sb.link_power_dbm
        )

    def test_connected_by_construction(self, network):
        assert nx.is_connected(network.graph())
        assert network.sparse_budget.is_connected()

    def test_weights_track_ps_strength(self, network):
        """Heavier edge ⇔ stronger mean received power (§IV)."""
        sb = network.sparse_budget
        upper = sb.link_row_ids < sb.link_indices
        iu, ju = sb.link_row_ids[upper], sb.link_indices[upper]
        w = sb.link_power_dbm[upper]
        delta = network.positions[iu] - network.positions[ju]
        d = np.hypot(delta[:, 0], delta[:, 1])
        # correlation between weight and -distance should be strongly positive
        corr = np.corrcoef(w, -d)[0, 1]
        assert corr > 0.5

    def test_graph_carries_weights(self, network):
        g = network.graph()
        u, v = next(iter(g.edges()))
        sb = network.sparse_budget
        assert g[u][v]["weight"] == float(sb.edge_power_lookup([u], [v])[0])
        assert g[u][v]["weight"] == float(network.weights[u, v])

    def test_degree_stats(self, network):
        stats = network.degree_stats()
        assert 0 < stats["min"] <= stats["mean"] <= stats["max"] < network.n


class TestDeterminism:
    def test_same_seed_same_network(self):
        a = D2DNetwork(PaperConfig(seed=5))
        b = D2DNetwork(PaperConfig(seed=5))
        assert np.array_equal(a.positions, b.positions)
        sa, sb = a.sparse_budget, b.sparse_budget
        assert np.array_equal(sa.link_indptr, sb.link_indptr)
        assert np.array_equal(sa.link_indices, sb.link_indices)
        assert np.array_equal(sa.link_power_dbm, sb.link_power_dbm)

    def test_different_seed_different_network(self):
        a = D2DNetwork(PaperConfig(seed=5))
        b = D2DNetwork(PaperConfig(seed=6))
        assert not np.array_equal(a.positions, b.positions)

    def test_explicit_streams_used(self):
        streams = RandomStreams(123)
        net = D2DNetwork(PaperConfig(seed=1), streams)
        ref = D2DNetwork(PaperConfig(seed=1), RandomStreams(123))
        assert np.array_equal(net.positions, ref.positions)


class TestPathlossModes:
    def test_logdistance_mode(self):
        net = D2DNetwork(PaperConfig(seed=1, pathloss_model="logdistance"))
        assert net.n == 50

    def test_no_shadowing_mode(self):
        net = D2DNetwork(PaperConfig(seed=1, shadowing_sigma_db=0.0))
        # without shadowing the weights are a pure function of distance:
        # strictly monotone in -d for the far segment
        sb = net.sparse_budget
        upper = sb.link_row_ids < sb.link_indices
        iu, ju = sb.link_row_ids[upper], sb.link_indices[upper]
        delta = net.positions[iu] - net.positions[ju]
        dist = np.hypot(delta[:, 0], delta[:, 1])
        far = dist > 6.0
        w = sb.link_power_dbm[upper][far]
        d = dist[far]
        order = np.argsort(d)
        assert np.all(np.diff(w[order]) <= 1e-9)

    def test_unknown_model_rejected(self):
        cfg = PaperConfig(seed=1)
        object.__setattr__(cfg, "pathloss_model", "bogus")
        with pytest.raises(ValueError, match="unknown pathloss"):
            D2DNetwork(cfg)


class TestConnectivityRepair:
    def test_sparse_scenario_eventually_connects(self):
        # large area + few devices: first draws are often disconnected
        cfg = PaperConfig(n_devices=10, area_side_m=400.0, seed=3)
        net = D2DNetwork(cfg)
        assert nx.is_connected(net.graph())
        assert net.placement_attempts >= 1

    def test_impossible_scenario_raises(self):
        cfg = PaperConfig(n_devices=4, area_side_m=5000.0, seed=3)
        with pytest.raises(RuntimeError, match="connected topology"):
            D2DNetwork(cfg)

    def test_require_connected_false_accepts_any(self):
        cfg = PaperConfig(n_devices=4, area_side_m=5000.0, seed=3)
        net = D2DNetwork(cfg, require_connected=False)
        assert net.placement_attempts == 1
