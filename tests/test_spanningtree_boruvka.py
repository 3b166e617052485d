"""Tests for distributed Borůvka."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.sparse_link import csr_from_edges
from repro.spanningtree.boruvka import distributed_boruvka, distributed_boruvka_csr
from repro.spanningtree.messages import MessageKind
from repro.spanningtree.mst import (
    is_spanning_tree,
    maximum_spanning_tree,
)
from repro.spanningtree.unionfind import UnionFind
from tests.references import presorted_boruvka_csr


def random_instance(n, seed, density=1.0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    adj = rng.random((n, n)) < density
    adj = adj | adj.T
    np.fill_diagonal(adj, False)
    return w, adj


class TestCorrectness:
    def test_matches_oracle_complete_graph(self):
        for seed in range(8):
            w, adj = random_instance(20, seed)
            result = distributed_boruvka(w, adj)
            assert result.converged
            assert result.edges == maximum_spanning_tree(w, adj)

    def test_matches_oracle_sparse_connected(self):
        for seed in range(8):
            w, adj = random_instance(30, seed, density=0.2)
            result = distributed_boruvka(w, adj)
            oracle = maximum_spanning_tree(w, adj)
            if result.converged:
                assert result.edges == oracle
                assert is_spanning_tree(result.edges, 30)
            else:
                # disconnected instance: both give the same forest
                assert result.edges == oracle

    def test_result_is_spanning_tree(self):
        w, adj = random_instance(25, 3)
        result = distributed_boruvka(w, adj)
        assert is_spanning_tree(result.edges, 25)

    def test_two_nodes(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        adj = ~np.eye(2, dtype=bool)
        result = distributed_boruvka(w, adj)
        assert result.edges == [(0, 1)]
        assert result.phase_count == 1

    def test_single_node(self):
        result = distributed_boruvka(np.zeros((1, 1)), np.zeros((1, 1), dtype=bool))
        assert result.converged  # one fragment = done
        assert result.edges == []

    def test_equal_weights_tie_break(self):
        """All-equal weights must not cycle: id tie-break gives a valid tree."""
        n = 10
        w = np.ones((n, n))
        np.fill_diagonal(w, 0.0)
        adj = ~np.eye(n, dtype=bool)
        result = distributed_boruvka(w, adj)
        assert is_spanning_tree(result.edges, n)

    def test_disconnected_reports_not_converged(self):
        w = np.zeros((4, 4))
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        w[adj] = 1.0
        result = distributed_boruvka(w, adj)
        assert not result.converged
        assert len(result.fragments) == 2


class TestComplexity:
    def test_logarithmic_phase_count(self):
        """Fragments at least halve per phase → ≤ ⌈log₂ n⌉ phases."""
        for n in (8, 32, 128):
            w, adj = random_instance(n, 1)
            result = distributed_boruvka(w, adj)
            assert result.phase_count <= int(np.ceil(np.log2(n))) + 1

    def test_message_count_n_log_n(self):
        """Total messages bounded by c·n·log₂n (the paper's claim)."""
        for n in (16, 64, 256):
            w, adj = random_instance(n, 2)
            result = distributed_boruvka(w, adj)
            bound = 6.0 * n * max(np.log2(n), 1.0)
            assert result.counter.total <= bound

    def test_fragments_halve_each_phase(self):
        w, adj = random_instance(64, 5)
        result = distributed_boruvka(w, adj)
        for phase in result.phases:
            assert phase.fragments_after <= phase.fragments_before // 2 + 1


class TestAccounting:
    def test_phase_records_consistent(self):
        w, adj = random_instance(20, 7)
        result = distributed_boruvka(w, adj)
        assert result.phases[0].fragments_before == 20
        assert result.phases[-1].fragments_after == 1
        for a, b in zip(result.phases, result.phases[1:]):
            assert b.fragments_before == a.fragments_after

    def test_message_kinds_present(self):
        w, adj = random_instance(20, 7)
        result = distributed_boruvka(w, adj)
        assert result.counter.count(MessageKind.TEST) > 0
        assert result.counter.count(MessageKind.REPORT) > 0
        assert result.counter.count(MessageKind.CONNECT) > 0
        # no sync pulses in the pure construction layer
        assert result.counter.count(MessageKind.SYNC_PULSE) == 0

    def test_reports_cover_every_member_every_phase(self):
        w, adj = random_instance(16, 9)
        result = distributed_boruvka(w, adj)
        assert result.counter.count(MessageKind.REPORT) == 16 * result.phase_count

    def test_chosen_edges_subset_of_tree(self):
        w, adj = random_instance(20, 11)
        result = distributed_boruvka(w, adj)
        chosen = {e for p in result.phases for e in p.chosen_edges}
        assert chosen == set(result.edges)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            distributed_boruvka(np.zeros((3, 3)), np.zeros((2, 2), dtype=bool))

    def test_empty_graph(self):
        with pytest.raises(ValueError):
            distributed_boruvka(np.zeros((0, 0)), np.zeros((0, 0), dtype=bool))


@st.composite
def csr_graphs(draw):
    """A random symmetric CSR graph and an acyclic set of seeded edges.

    Isolated nodes and disconnected components arise from sparse pair
    sets; ``ties`` draws every weight from three values, so most rows
    hold equal maxima.
    """
    n = draw(st.integers(1, 24))
    raw = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=70)
    )
    pairs = sorted({(min(a, b), max(a, b)) for a, b in raw if a != b})
    if draw(st.booleans()):  # ties
        weight = st.sampled_from([-60.0, -70.0, -80.0])
    else:
        weight = st.floats(-120.0, -40.0, allow_nan=False)
    ws = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    seed_flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    uf = UnionFind(n)
    initial = [p for p, f in zip(pairs, seed_flags) if f and uf.union(*p)]
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    w = np.array(ws, dtype=float)
    indptr, indices, (edge_weight,) = csr_from_edges(
        n, np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([w, w])
    )
    return n, indptr, indices, edge_weight, initial


class TestCsrScan:
    @settings(deadline=None, max_examples=150)
    @given(csr_graphs(), st.booleans())
    def test_matches_presorted_reference(self, graph, seeded):
        """The segmented-argmax scan elects what one up-front sort does."""
        n, indptr, indices, edge_weight, initial = graph
        kwargs = {"initial_edges": initial} if seeded else {}
        got = distributed_boruvka_csr(n, indptr, indices, edge_weight, **kwargs)
        want = presorted_boruvka_csr(n, indptr, indices, edge_weight, **kwargs)
        assert got.edges == want.edges
        assert got.phases == want.phases  # chosen edges and per-phase bills
        assert got.counter.as_dict() == want.counter.as_dict()
        assert [(f.head, f.members) for f in got.fragments] == [
            (f.head, f.members) for f in want.fragments
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        indptr = np.array([0, 1, 2])
        indices = np.array([1, 0])
        with pytest.raises(ValueError, match="finite"):
            distributed_boruvka_csr(2, indptr, indices, np.array([bad, bad]))
