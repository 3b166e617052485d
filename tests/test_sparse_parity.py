"""Seed-for-seed parity: the CSR (sparse) layout vs dense references.

Every simulation runs on the CSR link layout.  Counter-based channel
randomness makes layout irrelevant, so the CSR network and kernels must
agree *bitwise* with independent O(n²) references over the dense helper
views: the dense :class:`~repro.radio.link.LinkBudget`, the matrix
Borůvka and Kruskal trees, and the dense pulse-sync reception replaying
the same mesh run (:mod:`tests.references`).  These tests are the contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PaperConfig
from repro.core.fst import FSTSimulation, heavy_edge_forest_csr, stitch_forest_csr
from repro.core.network import D2DNetwork, channel_budget
from repro.core.st import STSimulation
from repro.faults.plan import FaultPlan
from repro.radio.link import LinkBudget
from repro.spanningtree.boruvka import distributed_boruvka, distributed_boruvka_csr
from repro.spanningtree.mst import maximum_spanning_tree, tree_weight
from tests.references import dense_mesh_sync, never_densified, survivors_mst


def _dense_budget(net: D2DNetwork) -> LinkBudget:
    """An O(n²) link budget over the network's positions and channel keys."""
    return channel_budget(
        net.config, net.positions, net.shadow_key, net.fading_key, LinkBudget
    )


class TestBackendSelection:
    def test_config_validation(self):
        with pytest.raises(TypeError):
            PaperConfig(backend="sparse")  # one execution path, no knob
        with pytest.raises(ValueError):
            PaperConfig(shadow_clip_sigma=-1.0)


class TestNetworkParity:
    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_graph_and_weights_bitwise(self, n):
        net = D2DNetwork(PaperConfig(n_devices=n, seed=3))
        dense = _dense_budget(net)
        adj = dense.adjacency()
        adj = adj & adj.T
        np.fill_diagonal(adj, False)

        sb = net.sparse_budget
        iu, ju = np.nonzero(adj)
        assert set(zip(sb.link_row_ids.tolist(), sb.link_indices.tolist())) == set(
            zip(iu.tolist(), ju.tolist())
        )
        weights = 0.5 * (dense.mean_rx_dbm + dense.mean_rx_dbm.T)
        assert np.array_equal(
            sb.link_power_dbm, weights[sb.link_row_ids, sb.link_indices]
        ), "CSR link powers must BE the symmetrized weights, bitwise"
        assert np.array_equal(sb.degrees(), adj.sum(axis=1))
        assert never_densified(net), "parity checks must not densify"

    def test_lazy_densify_matches_dense_backend(self):
        net = D2DNetwork(PaperConfig(n_devices=64, seed=5))
        assert never_densified(net)
        dense = _dense_budget(net)
        assert np.array_equal(net.link_budget.mean_rx_dbm, dense.mean_rx_dbm)
        adj = dense.adjacency()
        assert np.array_equal(net.adjacency, (adj & adj.T) & ~np.eye(64, dtype=bool))
        assert np.array_equal(
            net.weights, 0.5 * (dense.mean_rx_dbm + dense.mean_rx_dbm.T)
        )
        assert not never_densified(net)  # the views are built on first touch


class TestAlgorithmParity:
    def test_boruvka_csr_matches_dense(self):
        net = D2DNetwork(PaperConfig(n_devices=128, seed=2))
        sb = net.sparse_budget
        rs = distributed_boruvka_csr(
            128, sb.link_indptr, sb.link_indices, sb.link_power_dbm
        )
        rd = distributed_boruvka(net.weights, net.adjacency)
        assert rd.edges == rs.edges
        assert rd.counter.as_dict() == rs.counter.as_dict()
        assert [p.chosen_edges for p in rd.phases] == [
            p.chosen_edges for p in rs.phases
        ]

    def test_heavy_edge_and_stitch_csr_match_dense(self):
        net = D2DNetwork(PaperConfig(n_devices=128, seed=4))
        forest = heavy_edge_forest_csr(net.sparse_budget)
        # dense reference: every node's argmax neighbour (ties → lowest id)
        w = np.where(net.adjacency, net.weights, -np.inf)
        best = np.argmax(w, axis=1)
        assert forest == sorted(
            {(min(u, int(v)), max(u, int(v))) for u, v in enumerate(best)}
        )
        tree, stitches = stitch_forest_csr(forest, net.sparse_budget)
        # heavy-edge forest + greedy completion is Kruskal's max-ST
        assert tree == maximum_spanning_tree(net.weights, net.adjacency)
        assert stitches == len(tree) - len(forest)

    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("seed", [1, 9])
    def test_st_end_to_end(self, n, seed):
        cfg = PaperConfig(n_devices=n, seed=seed)
        net = D2DNetwork(cfg)
        rs = STSimulation(net).run()
        twin = D2DNetwork(cfg)
        rd = distributed_boruvka(twin.weights, twin.adjacency)
        assert rs.converged
        assert rs.tree_edges == maximum_spanning_tree(twin.weights, twin.adjacency)
        assert rs.extra["tree_weight"] == tree_weight(twin.weights, rs.tree_edges)
        assert rs.extra["phases"] == rd.phase_count
        for kind, count in rd.counter.as_dict().items():
            assert rs.message_breakdown[f"boruvka_{kind}"] == count, kind
        assert rs.messages == sum(rs.message_breakdown.values())
        assert never_densified(net), "ST must never touch dense views"

    @pytest.mark.parametrize("n", [32, 128])
    def test_fst_end_to_end(self, n):
        cfg = PaperConfig(n_devices=n, seed=7)
        net = D2DNetwork(cfg)
        rs = FSTSimulation(net).run()
        sync = dense_mesh_sync(cfg, "fst-sync")
        assert (rs.extra["fires"], rs.extra["instants"]) == (
            sync.fires,
            sync.instants,
        )
        assert rs.extra["sync_time_ms"] == sync.sync_time_ms
        assert rs.extra["final_spread_ms"] == sync.final_spread_ms
        assert rs.message_breakdown["sync_pulse"] == sync.messages
        assert rs.tree_edges == survivors_mst(cfg)
        assert never_densified(net), "FST must never touch dense views"

    def test_ghs_merge_rule_falls_back_to_densify(self):
        cfg = PaperConfig(n_devices=32, seed=1, merge_rule="ghs")
        net = D2DNetwork(cfg)
        result = STSimulation(net).run()
        assert result.converged
        assert not never_densified(net)  # documented GHS fallback
        assert result.tree_edges == STSimulation(D2DNetwork(
            cfg.replace(merge_rule="boruvka")
        )).run().tree_edges

    def test_collision_policies_parity(self):
        """The CSR mesh-sync kernel and the dense kernel agree under
        every pulse-detection rule."""
        for policy in ("capture", "destructive", "tolerant"):
            cfg = PaperConfig(n_devices=48, seed=11, collision_policy=policy)
            rs = FSTSimulation(D2DNetwork(cfg)).run()
            sync = dense_mesh_sync(cfg, "fst-sync")
            assert (rs.extra["fires"], rs.extra["sync_time_ms"]) == (
                sync.fires,
                sync.sync_time_ms,
            ), policy


class TestFaultParity:
    """An active FaultPlan draws identical faults on every layout.

    Every fault decision is a counter hash of the event's identity, so
    the dense references replay the degraded run bitwise: the mesh sync
    under drift, stalls, crashes and PS loss, and the survivors'
    maximum spanning tree the repaired ST tree must equal.
    """

    FAULTS = (
        "beacon_loss=0.05,collision=0.1,crash=0.15,stall=0.05,"
        "ps_loss=0.01,drift=0.001,crash_window_ms=3000,stall_window_ms=3000"
    )

    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_st_faulty_end_to_end(self, n, seed):
        cfg = PaperConfig(n_devices=n, seed=seed, faults=self.FAULTS)
        net = D2DNetwork(cfg)
        rs = STSimulation(net).run()
        dead = FaultPlan.from_config(cfg).dead_by(rs.time_ms)
        assert rs.extra["crashed"] == int(dead.sum())
        assert rs.messages == sum(rs.message_breakdown.values())
        if rs.converged:
            # MST fragments survive a crash; re-merging them yields the
            # survivors' maximum spanning tree
            assert rs.tree_edges == survivors_mst(cfg, dead)
        assert never_densified(net), "faulty ST must never densify"

    @pytest.mark.parametrize("n", [32, 128])
    def test_fst_faulty_end_to_end(self, n):
        cfg = PaperConfig(n_devices=n, seed=7, faults=self.FAULTS)
        net = D2DNetwork(cfg)
        rs = FSTSimulation(net).run()
        sync = dense_mesh_sync(cfg, "fst-sync")
        assert (rs.extra["fires"], rs.extra["instants"]) == (
            sync.fires,
            sync.instants,
        )
        assert rs.extra["sync_time_ms"] == sync.sync_time_ms
        assert rs.message_breakdown["sync_pulse"] == sync.messages
        dead = FaultPlan.from_config(cfg).dead_by(rs.time_ms)
        assert rs.extra["crashed"] == int(dead.sum())
        if rs.converged:
            assert rs.tree_edges == survivors_mst(cfg, dead)
        assert never_densified(net), "faulty FST must never densify"
