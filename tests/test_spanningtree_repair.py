"""Tests for spanning-tree repair after device failure."""

import numpy as np
import pytest

from repro.spanningtree.boruvka import distributed_boruvka
from repro.spanningtree.mst import is_spanning_tree, maximum_spanning_tree
from repro.spanningtree.repair import repair_after_failure_csr
from tests.linkcsr import MatrixLinkBudget


def repair(tree, failed, w, adj):
    """Repair over the link CSR of the weighted graph ``(w, adj)``."""
    return repair_after_failure_csr(
        tree, failed, MatrixLinkBudget.from_graph(w, adj)
    )


def random_instance(n, seed, density=1.0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    adj = rng.random((n, n)) < density
    adj = adj | adj.T
    np.fill_diagonal(adj, False)
    return w, adj


def survivors_tree(edges, failed, n):
    """Check edges span all non-failed nodes (as a tree)."""
    failed = {failed} if isinstance(failed, int) else set(failed)
    alive = [i for i in range(n) if i not in failed]
    remap = {node: i for i, node in enumerate(alive)}
    mapped = [(remap[u], remap[v]) for u, v in edges]
    return is_spanning_tree(mapped, len(alive))


class TestRepair:
    def test_repairs_single_failure(self):
        n = 30
        w, adj = random_instance(n, 1)
        tree = distributed_boruvka(w, adj).edges
        for failed in (0, 7, 29):
            result = repair(tree, failed, w, adj)
            assert result.repaired
            assert survivors_tree(result.tree_edges, failed, n)

    def test_repaired_tree_is_optimal_for_survivors(self):
        """Repair from max-ST fragments yields the survivors' max-ST."""
        n = 20
        w, adj = random_instance(n, 2)
        tree = distributed_boruvka(w, adj).edges
        failed = 5
        result = repair(tree, failed, w, adj)
        adj2 = adj.copy()
        adj2[failed, :] = adj2[:, failed] = False
        assert set(result.tree_edges) == set(maximum_spanning_tree(w, adj2))

    def test_multi_failure(self):
        n = 40
        w, adj = random_instance(n, 3)
        tree = distributed_boruvka(w, adj).edges
        result = repair(tree, {3, 17, 28}, w, adj)
        assert result.repaired
        assert survivors_tree(result.tree_edges, {3, 17, 28}, n)

    def test_leaf_failure_costs_nothing(self):
        """Losing a leaf leaves one fragment: zero repair messages."""
        n = 15
        w, adj = random_instance(n, 4)
        tree = distributed_boruvka(w, adj).edges
        degree = {i: 0 for i in range(n)}
        for u, v in tree:
            degree[u] += 1
            degree[v] += 1
        leaf = next(i for i, d in degree.items() if d == 1)
        result = repair(tree, leaf, w, adj)
        assert result.repaired
        assert result.fragments_after_failure == 1
        assert result.messages == 0
        assert result.new_edges == []

    def test_hub_failure_splits_by_degree(self):
        n = 25
        w, adj = random_instance(n, 5)
        tree = distributed_boruvka(w, adj).edges
        degree = {i: 0 for i in range(n)}
        for u, v in tree:
            degree[u] += 1
            degree[v] += 1
        hub = max(degree, key=degree.get)
        result = repair(tree, hub, w, adj)
        assert result.fragments_after_failure == degree[hub]
        assert len(result.removed_edges) == degree[hub]

    def test_repair_cheaper_than_rebuild(self):
        """The point of repairing: far fewer messages than from-scratch."""
        n = 100
        w, adj = random_instance(n, 6)
        tree = distributed_boruvka(w, adj).edges
        rebuild = distributed_boruvka(w, adj).counter.total
        degree = {i: 0 for i in range(n)}
        for u, v in tree:
            degree[u] += 1
            degree[v] += 1
        internal = next(i for i, d in degree.items() if d == 2)
        result = repair(tree, internal, w, adj)
        assert result.repaired
        assert result.messages < rebuild / 2

    def test_disconnecting_failure_reports_unrepaired(self):
        # a path graph: killing the middle disconnects the ends
        n = 3
        w = np.zeros((n, n))
        adj = np.zeros((n, n), dtype=bool)
        for u, v in ((0, 1), (1, 2)):
            adj[u, v] = adj[v, u] = True
            w[u, v] = w[v, u] = 1.0
        tree = [(0, 1), (1, 2)]
        result = repair(tree, 1, w, adj)
        assert not result.repaired

    def test_validation(self):
        w, adj = random_instance(5, 7)
        tree = distributed_boruvka(w, adj).edges
        with pytest.raises(ValueError, match="out of range"):
            repair(tree, 99, w, adj)
        with pytest.raises(ValueError, match="nothing to repair"):
            repair(tree, set(range(5)), w, adj)


class TestBoruvkaSeeding:
    def test_initial_edges_skip_paid_phases(self):
        n = 30
        w, adj = random_instance(n, 8)
        full = distributed_boruvka(w, adj)
        seeded = distributed_boruvka(
            w, adj, initial_edges=full.edges[: n - 5]
        )
        assert seeded.converged
        assert seeded.counter.total < full.counter.total

    def test_initial_cycle_rejected(self):
        w, adj = random_instance(4, 9)
        with pytest.raises(ValueError, match="cycle"):
            distributed_boruvka(
                w, adj, initial_edges=[(0, 1), (1, 2), (0, 2)]
            )

    def test_initial_nonedge_rejected(self):
        w = np.zeros((3, 3))
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        with pytest.raises(ValueError, match="usable"):
            distributed_boruvka(w, adj, initial_edges=[(0, 2)])
