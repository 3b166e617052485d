"""Property-based tests on the protocol layers (kernel, beacon, aggregation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beacon import top_k_required_csr
from repro.core.pulsesync import PulseSyncKernel
from repro.discovery.aggregation import aggregate_interests, flood_interests
from repro.oscillator.prc import LinearPRC
from repro.spanningtree.repair import repair_after_failure_csr
from repro.spanningtree.boruvka import distributed_boruvka
from repro.spanningtree.mst import is_spanning_tree
from tests.linkcsr import MatrixLinkBudget, edge_matrix


@st.composite
def radio_instances(draw, max_n=12):
    """All-audible mean-power matrix with varied link powers."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-25.0, 0.0, size=(n, n))
    delta = (delta + delta.T) / 2.0
    m = -60.0 + delta
    np.fill_diagonal(m, -np.inf)
    return m, seed


@st.composite
def random_trees(draw, max_n=15):
    """Random labelled tree + a services vector."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    services = rng.integers(0, 4, size=n)
    return edges, services, seed


class TestKernelProperties:
    @settings(deadline=None, max_examples=25)
    @given(radio_instances())
    def test_mesh_sync_always_converges(self, instance):
        """Mirollo–Strogatz regime + full audibility ⇒ convergence."""
        m, seed = instance
        n = m.shape[0]
        kernel = PulseSyncKernel(
            m,
            ~np.eye(n, dtype=bool),
            LinearPRC.from_dissipation(3.0, 0.08),
            period_ms=100.0,
            threshold_dbm=-95.0,
            refractory_ms=1.0,
            sync_window_ms=2.0,
        )
        result = kernel.run(np.random.default_rng(seed), max_time_ms=120_000.0)
        assert result.converged
        assert result.messages == result.fires
        assert result.final_spread_ms <= 2.0

    @settings(deadline=None, max_examples=25)
    @given(radio_instances())
    def test_time_and_counts_nonnegative_consistent(self, instance):
        m, seed = instance
        n = m.shape[0]
        kernel = PulseSyncKernel(
            m,
            ~np.eye(n, dtype=bool),
            LinearPRC.from_dissipation(3.0, 0.08),
            period_ms=100.0,
            threshold_dbm=-95.0,
        )
        result = kernel.run(np.random.default_rng(seed), max_time_ms=60_000.0)
        assert result.time_ms >= 0
        assert result.fires >= result.instants  # every instant ≥ 1 fire
        assert np.isnan(result.final_phase).sum() == 0


class TestBeaconProperties:
    @settings(deadline=None, max_examples=30)
    @given(radio_instances(), st.integers(min_value=1, max_value=3))
    def test_top_k_required_subset_of_adjacency(self, instance, k):
        m, _ = instance
        n = m.shape[0]
        adj = ~np.eye(n, dtype=bool)
        budget = MatrixLinkBudget(m, threshold_dbm=-95.0)
        req = edge_matrix(budget, top_k_required_csr(budget, k=k))
        assert not req.diagonal().any()
        assert (req <= adj).all()
        assert (req.sum(axis=1) == min(k, n - 1)).all()
        if k == 1:
            # the reduceat path picks each receiver's heaviest sender
            # (np.argmax: ties to the lowest id)
            heaviest = np.argmax(np.where(adj, m, -np.inf), axis=1)
            assert req[np.arange(n), heaviest].all()


class TestAggregationProperties:
    @settings(deadline=None, max_examples=40)
    @given(random_trees())
    def test_tree_cost_formula_and_map_equivalence(self, instance):
        edges, services, _seed = instance
        n = len(services)
        result = aggregate_interests(edges, services, head=0)
        assert result.messages == 2 * (n - 1)
        # flooding over the same tree topology agrees on the map
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            adj[u, v] = adj[v, u] = True
        flood = flood_interests(adj, services)
        assert flood.service_map == result.service_map
        assert flood.messages == n * n

    @settings(deadline=None, max_examples=40)
    @given(random_trees())
    def test_map_partitions_devices(self, instance):
        edges, services, _seed = instance
        result = aggregate_interests(edges, services, head=0)
        listed = sorted(d for devs in result.service_map.values() for d in devs)
        assert listed == list(range(len(services)))


class TestRepairProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=4, max_value=14),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.data(),
    )
    def test_repair_always_restores_survivors(self, n, seed, data):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        adj = ~np.eye(n, dtype=bool)
        tree = distributed_boruvka(w, adj).edges
        failed = data.draw(st.integers(min_value=0, max_value=n - 1))
        result = repair_after_failure_csr(
            tree, failed, MatrixLinkBudget.from_graph(w, adj)
        )
        assert result.repaired
        # remap survivors and verify the tree property
        alive = [i for i in range(n) if i != failed]
        remap = {node: i for i, node in enumerate(alive)}
        mapped = [(remap[u], remap[v]) for u, v in result.tree_edges]
        assert is_spanning_tree(mapped, n - 1)
