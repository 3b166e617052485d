"""Tests for the FST baseline."""

import numpy as np
import pytest

from repro.core.config import PaperConfig
from repro.core.fst import (
    FSTSimulation,
    heavy_edge_forest_csr,
    stitch_forest_csr,
)
from repro.core.network import D2DNetwork
from repro.spanningtree.mst import is_spanning_tree, maximum_spanning_tree


@pytest.fixture(scope="module")
def paper_run():
    net = D2DNetwork(PaperConfig(seed=1))
    return net, FSTSimulation(net).run()


class TestHeavyEdgeForest:
    def test_forest_is_acyclic(self):
        net = D2DNetwork(PaperConfig(seed=3))
        forest = heavy_edge_forest_csr(net.sparse_budget)
        # subset of the unique maximum spanning tree → acyclic by theorem
        mst = set(maximum_spanning_tree(net.weights, net.adjacency))
        assert set(forest) <= mst

    def test_every_node_covered(self):
        net = D2DNetwork(PaperConfig(seed=3))
        forest = heavy_edge_forest_csr(net.sparse_budget)
        touched = {u for e in forest for u in e}
        assert touched == set(range(net.n))

    def test_stitch_completes_tree(self):
        net = D2DNetwork(PaperConfig(seed=3))
        forest = heavy_edge_forest_csr(net.sparse_budget)
        tree, stitches = stitch_forest_csr(forest, net.sparse_budget)
        assert is_spanning_tree(tree, net.n)
        assert stitches == len(tree) - len(forest)

    def test_stitched_tree_is_maximum(self):
        """Heavy-edge forest + greedy completion = the Kruskal max-ST."""
        net = D2DNetwork(PaperConfig(seed=3))
        forest = heavy_edge_forest_csr(net.sparse_budget)
        tree, _ = stitch_forest_csr(forest, net.sparse_budget)
        assert tree == maximum_spanning_tree(net.weights, net.adjacency)


class TestRun:
    def test_converges_at_paper_scale(self, paper_run):
        _, result = paper_run
        assert result.converged
        assert result.algorithm == "fst"

    def test_time_covers_both_goals(self, paper_run):
        """FST is done only when sync AND full mesh discovery are done."""
        _, result = paper_run
        assert result.time_ms == pytest.approx(
            max(result.extra["sync_time_ms"], result.extra["discovery_time_ms"])
        )

    def test_breakdown_sums(self, paper_run):
        _, result = paper_run
        assert sum(result.message_breakdown.values()) == result.messages

    def test_tree_valid(self, paper_run):
        net, result = paper_run
        assert is_spanning_tree(result.tree_edges, net.n)

    def test_no_missing_pairs_on_convergence(self, paper_run):
        _, result = paper_run
        assert result.extra["missing_pairs"] == 0

    def test_deterministic(self):
        a = FSTSimulation(D2DNetwork(PaperConfig(seed=8))).run()
        b = FSTSimulation(D2DNetwork(PaperConfig(seed=8))).run()
        assert a.time_ms == b.time_ms and a.messages == b.messages


class TestScaling:
    def test_discovery_dominates_at_density(self):
        """In the fixed cell, FST's mesh discovery is the long pole."""
        cfg = PaperConfig(seed=5).with_devices(300, keep_density=False)
        result = FSTSimulation(D2DNetwork(cfg)).run()
        assert result.extra["discovery_time_ms"] >= result.extra["sync_time_ms"]

    def test_messages_grow_faster_than_linear(self):
        totals = {}
        for n in (100, 400):
            cfg = PaperConfig(seed=6).with_devices(n, keep_density=False)
            totals[n] = FSTSimulation(D2DNetwork(cfg)).run().messages
        assert totals[400] / totals[100] > 4.0  # superlinear
