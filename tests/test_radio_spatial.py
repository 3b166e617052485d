"""Cell-grid block enumeration vs brute force."""

from __future__ import annotations

import numpy as np
import pytest

from repro.radio.spatial import CellGrid, pair_slices


def _brute_pairs(positions: np.ndarray, radius: float) -> set[tuple[int, int]]:
    n = positions.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    d = np.linalg.norm(positions[iu] - positions[ju], axis=1)
    keep = d <= radius
    return set(zip(iu[keep].tolist(), ju[keep].tolist()))


def _grid_pairs(positions, radius, **kwargs) -> list[tuple[int, int]]:
    """Every (min, max) pair the block slices hold, in slice order."""
    out = []
    for rows, cols, d2, upper in pair_slices(positions, radius, **kwargs):
        assert d2.shape == (rows.size, cols.size)
        r, c = np.nonzero(np.ones(d2.shape, bool) if upper is None else upper)
        i, j = rows[r], cols[c]
        assert np.all(i != j), "a slice must not pair a node with itself"
        diff = positions[i] - positions[j]
        assert np.array_equal(d2[r, c], (diff * diff).sum(axis=1))
        out.extend(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("radius", [5.0, 17.3, 60.0])
def test_candidates_cover_all_in_radius_pairs(seed, radius):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 100, size=(250, 2))
    got = _grid_pairs(positions, radius)
    assert len(got) == len(set(got)), "no duplicate candidates"
    # candidates are a superset of the true in-radius pairs (cells are
    # square, so the neighbourhood may include slightly-too-far pairs)
    assert _brute_pairs(positions, radius) <= set(got)


def test_chunking_does_not_change_the_pair_set():
    rng = np.random.default_rng(3)
    positions = rng.uniform(0, 50, size=(300, 2))
    whole = set(_grid_pairs(positions, 10.0))
    tiny = _grid_pairs(positions, 10.0, max_chunk_pairs=17)
    assert len(tiny) == len(set(tiny))
    assert set(tiny) == whole


def test_degenerate_inputs():
    rng = np.random.default_rng(4)
    positions = rng.uniform(0, 10, size=(20, 2))
    assert _grid_pairs(positions, 0.0) == []
    assert _grid_pairs(positions, -1.0) == []
    assert _grid_pairs(positions[:1], 5.0) == []
    assert _grid_pairs(np.empty((0, 2)), 5.0) == []


def test_all_points_coincident():
    positions = np.ones((40, 2)) * 3.7
    got = _grid_pairs(positions, 0.5)
    assert len(got) == 40 * 39 // 2


def test_grid_covers_radius_exactly_at_boundary():
    # two points exactly radius apart must be a candidate
    positions = np.array([[0.0, 0.0], [7.5, 0.0]])
    assert (0, 1) in set(_grid_pairs(positions, 7.5))


def test_cellgrid_large_spread_small_radius():
    rng = np.random.default_rng(5)
    positions = rng.uniform(0, 10_000, size=(500, 2))
    grid = CellGrid(positions, 25.0)
    got = set(_grid_pairs(positions, 25.0))
    assert _brute_pairs(positions, 25.0) <= got
    # sparsity sanity: nowhere near all n(n-1)/2 pairs
    assert len(got) < 500 * 499 // 8
    assert grid.occupied_cells > 100  # points actually spread over cells
