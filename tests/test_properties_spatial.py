"""Property-based tests: the cell grid never misses an in-range pair."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.spatial import CellGrid, pair_slices


@st.composite
def scattered_positions(draw, max_n=48):
    n = draw(st.integers(min_value=0, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    side = draw(st.floats(min_value=1.0, max_value=500.0))
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, side, size=(n, 2)), side


radii = st.floats(min_value=0.5, max_value=200.0)


def _collect(positions, radius, **kw):
    pairs = set()
    for rows, cols, d2, upper in pair_slices(positions, radius, **kw):
        assert d2.shape == (rows.size, cols.size)
        r, c = np.nonzero(np.ones(d2.shape, bool) if upper is None else upper)
        for a, b in zip(rows[r].tolist(), cols[c].tolist()):
            assert a != b, "a node must not be paired with itself"
            key = (min(a, b), max(a, b))
            assert key not in pairs, "pair emitted twice"
            pairs.add(key)
    return pairs


def _brute_force(positions, radius):
    n = positions.shape[0]
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    iu, ju = np.triu_indices(n, k=1)
    close = dist[iu, ju] < radius
    return set(zip(iu[close].tolist(), ju[close].tolist()))


@settings(deadline=None, max_examples=40)
@given(scattered_positions(), radii)
def test_candidates_superset_of_brute_force(layout, radius):
    positions, _side = layout
    candidates = _collect(positions, radius)
    required = _brute_force(positions, radius)
    assert required <= candidates
    # candidates are bounded: nothing beyond the 3×3 neighbourhood reach
    for a, b in candidates:
        d = float(np.linalg.norm(positions[a] - positions[b]))
        assert d <= np.sqrt(8.0) * radius + 1e-9


@settings(deadline=None, max_examples=40)
@given(scattered_positions(), radii, st.integers(min_value=1, max_value=64))
def test_chunking_does_not_change_the_pair_set(layout, radius, chunk):
    positions, _side = layout
    assert _collect(positions, radius, max_chunk_pairs=chunk) == _collect(
        positions, radius
    )


@settings(deadline=None, max_examples=40)
@given(scattered_positions())
def test_degenerate_radius_covers_everything(layout):
    """A radius covering the bounding box degrades to all pairs."""
    positions, side = layout
    n = positions.shape[0]
    candidates = _collect(positions, np.sqrt(2.0) * side + 1.0)
    assert len(candidates) == n * (n - 1) // 2


def test_grid_rejects_bad_inputs():
    import pytest

    with pytest.raises(ValueError):
        CellGrid(np.zeros((3, 3)), 1.0)
    with pytest.raises(ValueError):
        CellGrid(np.zeros((3, 2)), 0.0)
    assert list(pair_slices(np.zeros((3, 2)), -1.0)) == []
