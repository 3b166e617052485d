"""SparseLinkBudget vs the dense LinkBudget reference — bitwise parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.radio.fading import FADE_CAP_DB, HashedRayleighFading, NoFading
from repro.radio.link import LinkBudget
from repro.radio.pathloss import PaperPathLoss
from repro.radio.shadowing import HashedShadowing, NoShadowing
from repro.radio.sparse_link import (
    SparseLinkBudget,
    csr_from_edges,
    csr_is_connected,
    gather_rows,
)
from tests.linkcsr import StreamModel


def _make_pair(n=120, seed=0, sigma=8.0, fading=True):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 100, size=(n, 2))
    shadow = HashedShadowing(sigma, key=seed + 1) if sigma > 0 else NoShadowing()
    fade = HashedRayleighFading(seed + 2) if fading else NoFading()
    kwargs = dict(
        tx_power_dbm=23.0, threshold_dbm=-95.0, shadowing=shadow, fading=fade
    )
    dense = LinkBudget(positions, PaperPathLoss(), **kwargs)
    sparse = SparseLinkBudget(positions, PaperPathLoss(), **kwargs)
    return dense, sparse


class TestGatherRows:
    def test_simple(self):
        indptr = np.array([0, 2, 2, 5], dtype=np.int64)
        epos, rows = gather_rows(indptr, np.array([0, 2], dtype=np.int64))
        assert epos.tolist() == [0, 1, 2, 3, 4]
        assert rows.tolist() == [0, 0, 2, 2, 2]

    def test_empty_selection(self):
        indptr = np.array([0, 3, 4], dtype=np.int64)
        epos, rows = gather_rows(indptr, np.empty(0, dtype=np.int64))
        assert epos.size == 0 and rows.size == 0

    def test_repeated_rows(self):
        indptr = np.array([0, 1, 3], dtype=np.int64)
        epos, rows = gather_rows(indptr, np.array([1, 1], dtype=np.int64))
        assert epos.tolist() == [1, 2, 1, 2]
        assert rows.tolist() == [1, 1, 1, 1]


class TestCsrHelpers:
    def test_csr_from_edges_sorts(self):
        tx = np.array([2, 0, 2, 1], dtype=np.int64)
        rx = np.array([1, 2, 0, 0], dtype=np.int64)
        w = np.array([10.0, 20.0, 30.0, 40.0])
        indptr, indices, (wo,) = csr_from_edges(3, tx, rx, w)
        assert indptr.tolist() == [0, 1, 2, 4]
        assert indices.tolist() == [2, 0, 0, 1]
        assert wo.tolist() == [20.0, 40.0, 30.0, 10.0]

    def test_is_connected(self):
        # path 0-1-2 plus isolated 3
        tx = np.array([0, 1, 1, 2], dtype=np.int64)
        rx = np.array([1, 0, 2, 1], dtype=np.int64)
        indptr, indices, _ = csr_from_edges(4, tx, rx)
        assert not csr_is_connected(4, indptr, indices)
        indptr3, indices3, _ = csr_from_edges(3, tx, rx)
        assert csr_is_connected(3, indptr3, indices3)
        assert csr_is_connected(1, np.array([0, 0]), np.empty(0, dtype=np.int64))


class TestDenseParity:
    @pytest.mark.parametrize("sigma,fading", [(8.0, True), (8.0, False), (0.0, True)])
    def test_link_sets_and_powers_bitwise(self, sigma, fading):
        dense, sparse = _make_pair(sigma=sigma, fading=fading)
        mean = dense.mean_rx_dbm
        adj = dense.adjacency()
        np.fill_diagonal(adj, False)
        iu, ju = np.nonzero(adj)
        got = set(zip(sparse.link_row_ids.tolist(), sparse.link_indices.tolist()))
        assert got == set(zip(iu.tolist(), ju.tolist()))
        assert np.array_equal(
            sparse.link_power_dbm,
            mean[sparse.link_row_ids, sparse.link_indices],
        )

    def test_radio_graph_includes_fading_headroom(self):
        dense, sparse = _make_pair()
        mean = dense.mean_rx_dbm.copy()
        np.fill_diagonal(mean, -np.inf)
        want = mean >= sparse.threshold_dbm - FADE_CAP_DB
        iu, ju = np.nonzero(want)
        got = set(zip(sparse.row_ids.tolist(), sparse.indices.tolist()))
        assert got == set(zip(iu.tolist(), ju.tolist()))
        assert np.array_equal(sparse.power_dbm, mean[sparse.row_ids, sparse.indices])

    def test_point_queries(self):
        dense, sparse = _make_pair(n=60)
        for tx, rx in [(0, 1), (5, 40), (59, 0), (3, 3)]:
            assert sparse.mean_power_dbm(tx, rx) == dense.mean_power_dbm(tx, rx)

    def test_degrees_and_connectivity(self):
        import networkx as nx

        dense, sparse = _make_pair()
        adj = dense.adjacency() & dense.adjacency().T
        np.fill_diagonal(adj, False)
        assert np.array_equal(sparse.degrees(), adj.sum(axis=1))
        assert sparse.is_connected() == nx.is_connected(nx.from_numpy_array(adj))

    @pytest.mark.parametrize("margin", [0.0, 3.0, -FADE_CAP_DB])
    def test_adjacency_pairs(self, margin):
        dense, sparse = _make_pair()
        want = dense.mean_rx_dbm >= dense.threshold_dbm + margin
        np.fill_diagonal(want, False)
        iu, ju = sparse.adjacency_pairs(margin)
        got = np.zeros_like(want)
        got[iu, ju] = True
        assert np.array_equal(got, want)

    def test_adjacency_pairs_below_headroom_rejected(self):
        _, sparse = _make_pair()
        with pytest.raises(ValueError):
            sparse.adjacency_pairs(-FADE_CAP_DB - 1.0)

    def test_edge_position_and_lookup(self):
        _, sparse = _make_pair(n=80)
        tx = sparse.row_ids[::7]
        rx = sparse.indices[::7]
        pos = sparse.edge_position(tx, rx)
        assert np.array_equal(sparse.power_dbm[pos], sparse.edge_power_lookup(tx, rx))
        # absent edge → -1 / KeyError
        far = sparse.edge_position(np.array([0]), np.array([0]))
        assert far[0] == -1
        with pytest.raises(KeyError):
            sparse.edge_power_lookup(np.array([0]), np.array([0]))


class TestGuards:
    def test_stream_models_rejected(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 50, size=(20, 2))
        with pytest.raises(TypeError):
            SparseLinkBudget(
                positions,
                PaperPathLoss(),
                tx_power_dbm=23.0,
                threshold_dbm=-95.0,
                shadowing=StreamModel(),
                fading=NoFading(),
            )
        with pytest.raises(TypeError):
            SparseLinkBudget(
                positions,
                PaperPathLoss(),
                tx_power_dbm=23.0,
                threshold_dbm=-95.0,
                shadowing=NoShadowing(),
                fading=StreamModel(),
            )

    def test_chunked_equals_unchunked(self):
        rng = np.random.default_rng(1)
        positions = rng.uniform(0, 100, size=(100, 2))
        kwargs = dict(
            tx_power_dbm=23.0,
            threshold_dbm=-95.0,
            shadowing=HashedShadowing(8.0, key=9),
            fading=HashedRayleighFading(10),
        )
        a = SparseLinkBudget(positions, PaperPathLoss(), **kwargs)
        b = SparseLinkBudget(
            positions, PaperPathLoss(), max_chunk_pairs=101, **kwargs
        )
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.power_dbm, b.power_dbm)

    def test_default_chunk_equals_large_chunk_at_scale(self):
        """n = 4096 at constant density spans many default-size chunks;
        a 64× larger chunk builds the same CSR bytes."""
        sb = D2DNetwork(
            PaperConfig(seed=2).with_devices(4096, keep_density=True)
        ).sparse_budget
        big = SparseLinkBudget(
            sb.positions,
            sb.pathloss,
            tx_power_dbm=sb.tx_power_dbm,
            threshold_dbm=sb.threshold_dbm,
            shadowing=sb.shadowing,
            fading=sb.fading,
            max_chunk_pairs=1 << 21,
        )
        for name in ("indptr", "indices", "power_dbm"):
            assert getattr(sb, name).tobytes() == getattr(big, name).tobytes()
