"""Tests for the proposed ST algorithm."""

import numpy as np
import pytest

from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.replay import ReplayLedger
from repro.core.st import STSimulation
from repro.spanningtree.mst import is_spanning_tree, maximum_spanning_tree


@pytest.fixture(scope="module")
def paper_run():
    net = D2DNetwork(PaperConfig(seed=1))
    return net, STSimulation(net).run()


def _grown(n, edges):
    """A replay ledger after merging ``edges`` in order."""
    ledger = ReplayLedger(n, edges)
    for u, v in edges:
        assert ledger.merge(u, v)
    return ledger


class TestTreeDiameter:
    def test_singleton(self):
        assert _grown(1, []).diameter_of(0) == 0

    def test_chain(self):
        ledger = _grown(4, [(0, 1), (1, 2), (2, 3)])
        assert ledger.diameter_of(2) == 3

    def test_star(self):
        ledger = _grown(4, [(0, 1), (0, 2), (0, 3)])
        assert ledger.diameter_of(3) == 2


class TestRun:
    def test_converges_at_paper_scale(self, paper_run):
        _, result = paper_run
        assert result.converged
        assert result.algorithm == "st"
        assert result.n_devices == 50

    def test_tree_is_maximum_spanning_tree(self, paper_run):
        net, result = paper_run
        assert is_spanning_tree(result.tree_edges, net.n)
        assert result.tree_edges == maximum_spanning_tree(
            net.weights, net.adjacency
        )

    def test_message_breakdown_sums_to_total(self, paper_run):
        _, result = paper_run
        assert sum(result.message_breakdown.values()) == result.messages

    def test_all_protocol_layers_billed(self, paper_run):
        """Every over-the-air action class must appear in the bill."""
        _, result = paper_run
        bd = result.message_breakdown
        for key in ("discovery", "handshake", "alignment", "trim_sync",
                    "ffa_rounds", "boruvka_test", "boruvka_report",
                    "boruvka_connect"):
            assert bd[key] > 0, key

    def test_time_is_sum_of_stages(self, paper_run):
        _, result = paper_run
        assert result.time_ms > result.extra["construction_ms"]
        assert result.extra["trim_ms"] > 0

    def test_phase_count_logarithmic(self, paper_run):
        _, result = paper_run
        assert result.extra["phases"] <= int(np.ceil(np.log2(50))) + 1

    def test_final_spread_within_window(self, paper_run):
        net, result = paper_run
        assert result.extra["final_spread_ms"] <= net.config.sync_window_ms

    def test_deterministic(self):
        a = STSimulation(D2DNetwork(PaperConfig(seed=9))).run()
        b = STSimulation(D2DNetwork(PaperConfig(seed=9))).run()
        assert a.time_ms == b.time_ms
        assert a.messages == b.messages
        assert a.tree_edges == b.tree_edges

    def test_different_seeds_differ(self):
        a = STSimulation(D2DNetwork(PaperConfig(seed=9))).run()
        b = STSimulation(D2DNetwork(PaperConfig(seed=10))).run()
        assert a.tree_edges != b.tree_edges


class TestScaling:
    def test_messages_grow_superlinearly_sublog(self):
        """ST messages sit in the n log n regime: superlinear, subquadratic."""
        sizes = (50, 200)
        totals = {}
        for n in sizes:
            cfg = PaperConfig(seed=4).with_devices(n, keep_density=False)
            totals[n] = STSimulation(D2DNetwork(cfg)).run().messages
        ratio = totals[200] / totals[50]
        assert 4.0 < ratio < 16.0  # 4x nodes → between 4x and 16x messages

    def test_small_network(self):
        cfg = PaperConfig(n_devices=5, area_side_m=30.0, seed=2)
        result = STSimulation(D2DNetwork(cfg)).run()
        assert result.converged
        assert len(result.tree_edges) == 4


class TestMergeRules:
    def test_ghs_mode_same_tree(self):
        """Both merge rules reach the unique max-ST; GHS may take more
        rounds but the result and convergence are identical."""
        boruvka_cfg = PaperConfig(seed=12)
        ghs_cfg = PaperConfig(seed=12, merge_rule="ghs")
        a = STSimulation(D2DNetwork(boruvka_cfg)).run()
        b = STSimulation(D2DNetwork(ghs_cfg)).run()
        assert a.converged and b.converged
        assert a.tree_edges == b.tree_edges

    def test_ghs_never_fewer_phases(self):
        a = STSimulation(D2DNetwork(PaperConfig(seed=13))).run()
        b = STSimulation(D2DNetwork(PaperConfig(seed=13, merge_rule="ghs"))).run()
        assert b.extra["phases"] >= a.extra["phases"]
