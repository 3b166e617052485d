"""Property-based tests for the sharding tier's border handling.

Two promises carry the whole halo design (docs/sharding.md):

* **Partition** — every cross-tile pair within the halo radius that the
  unsharded machinery would find is found by *exactly one* shard (the
  pair's smaller tile id): no drops, no double counting, for random
  positions, tile sizes and radii; and restricting the search to the
  border bands loses nothing.
* **Injectivity** — shard-seed derivation is injective across
  (city_seed, shard_id) in practice, so no two shards anywhere in a
  campaign ever share a deployment stream.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.spatial import pair_slices
from repro.shard.halo import border_band, owned_tile_pairs
from repro.shard.tiling import Tiling, city_channel_key, shard_seed
from tests.references import cross_pairs


@st.composite
def city_layouts(draw, max_n=48, max_tiles=4):
    rows = draw(st.integers(min_value=1, max_value=max_tiles))
    cols = draw(st.integers(min_value=1, max_value=max_tiles))
    tile_side = draw(st.floats(min_value=5.0, max_value=200.0))
    n = draw(st.integers(min_value=0, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    positions = rng.uniform(
        [0.0, 0.0], [cols * tile_side, rows * tile_side], size=(n, 2)
    )
    return Tiling(rows, cols, tile_side), positions


radii = st.floats(min_value=0.5, max_value=300.0)


def _brute_cross_pairs(positions, tiles, radius):
    """Reference set: every cross-tile pair within the radius.

    Uses the identical float expression as :func:`cross_pairs`
    (``dx*dx + dy*dy <= r*r``) so the comparison is exact, not
    tolerance-based.
    """
    n = positions.shape[0]
    out = set()
    r2 = radius * radius
    for i in range(n):
        for j in range(i + 1, n):
            if tiles[i] == tiles[j]:
                continue
            dx = positions[i, 0] - positions[j, 0]
            dy = positions[i, 1] - positions[j, 1]
            if dx * dx + dy * dy <= r2:
                out.add((i, j))
    return out


@settings(deadline=None, max_examples=60)
@given(city_layouts(), radii)
def test_every_cross_pair_found_by_exactly_one_shard(layout, radius):
    tiling, positions = layout
    ids = np.arange(positions.shape[0], dtype=np.int64)
    tiles = tiling.tile_of(positions)
    expected = _brute_cross_pairs(positions, tiles, radius)

    seen: dict[tuple[int, int], int] = {}
    for owner in range(tiling.count):
        gi, gj, dist = cross_pairs(
            positions, ids, tiles, radius, owner=owner
        )
        assert np.all(dist <= radius + 1e-9)
        for a, b in zip(gi.tolist(), gj.tolist()):
            assert a < b
            assert (a, b) not in seen, (
                f"pair {(a, b)} found by shards {seen[(a, b)]} and {owner}"
            )
            seen[(a, b)] = owner
            # ownership rule: the pair's smaller tile id
            assert min(tiles[a], tiles[b]) == owner

    assert set(seen) == expected, (
        f"dropped: {expected - set(seen)}; extra: {set(seen) - expected}"
    )


def _bipartite_pair_counts(positions, tiles, radius, owner, chunk):
    """How often each pair within the radius appears in the bipartite
    slices :func:`~repro.shard.halo.cross_links` evaluates for ``owner``."""
    counts: dict[tuple[int, int], int] = {}
    r2 = radius * radius
    for a, b in owned_tile_pairs(tiles, owner):
        sub = np.concatenate((a, b))
        for rows, cols, d2, upper in pair_slices(
            positions[sub], radius, split=a.size, max_chunk_pairs=chunk
        ):
            assert upper is None
            assert (rows < a.size).all() and (cols >= a.size).all()
            r, c = np.nonzero(d2 <= r2)
            for i, j in zip(sub[rows[r]].tolist(), sub[cols[c]].tolist()):
                assert tiles[i] != tiles[j], f"same-tile pair {(i, j)}"
                if owner is not None:
                    assert min(tiles[i], tiles[j]) == owner
                key = (min(i, j), max(i, j))
                counts[key] = counts.get(key, 0) + 1
    return counts


@settings(deadline=None, max_examples=60)
@given(city_layouts(), radii, st.integers(min_value=1, max_value=64))
def test_bipartite_slices_hold_each_owned_pair_once(layout, radius, chunk):
    """The halo's bipartite tile-pair slices hold every owned cross-tile
    pair within the radius exactly once and no same-tile pair, per owner
    and for ``owner=None``."""
    tiling, positions = layout
    tiles = tiling.tile_of(positions)
    expected = _brute_cross_pairs(positions, tiles, radius)
    union: dict[tuple[int, int], int] = {}
    for owner in range(tiling.count):
        for key, count in _bipartite_pair_counts(
            positions, tiles, radius, owner, chunk
        ).items():
            union[key] = union.get(key, 0) + count
    assert set(union) == expected
    assert set(union.values()) <= {1}, "a pair appeared twice"
    unowned = _bipartite_pair_counts(positions, tiles, radius, None, chunk)
    assert unowned == union


@settings(deadline=None, max_examples=40)
@given(city_layouts(), radii)
def test_unowned_union_equals_partition(layout, radius):
    tiling, positions = layout
    ids = np.arange(positions.shape[0], dtype=np.int64)
    tiles = tiling.tile_of(positions)
    gi, gj, _ = cross_pairs(positions, ids, tiles, radius, owner=None)
    unowned = set(zip(gi.tolist(), gj.tolist()))
    assert len(unowned) == gi.size, "owner=None emitted a duplicate"
    assert unowned == _brute_cross_pairs(positions, tiles, radius)


@settings(deadline=None, max_examples=40)
@given(city_layouts(), st.floats(min_value=0.5, max_value=120.0))
def test_border_bands_lose_no_cross_pairs(layout, radius):
    """A cross-tile pair within the radius has both endpoints within the
    radius of a tile border, so searching only the bands is lossless."""
    tiling, positions = layout
    n = positions.shape[0]
    ids = np.arange(n, dtype=np.int64)
    tiles = tiling.tile_of(positions)

    in_band = np.zeros(n, dtype=bool)
    for tile in range(tiling.count):
        mine = tiles == tile
        if not mine.any():
            continue
        band = border_band(positions[mine], tiling, tile, radius)
        in_band[np.flatnonzero(mine)[band]] = True

    full_i, full_j, _ = cross_pairs(positions, ids, tiles, radius)
    sub = np.flatnonzero(in_band)
    band_i, band_j, _ = cross_pairs(
        positions[sub], ids[sub], tiles[sub], radius
    )
    assert set(zip(full_i.tolist(), full_j.tolist())) == set(
        zip(band_i.tolist(), band_j.tolist())
    )


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**63 - 1),
            st.integers(min_value=0, max_value=2**20),
        ),
        min_size=1,
        max_size=64,
        unique=True,
    )
)
def test_shard_seed_injective_across_seed_and_shard(pairs):
    seeds = [shard_seed(city, shard) for city, shard in pairs]
    assert len(set(seeds)) == len(pairs), "shard seed collision"


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=0, max_value=2**63 - 1),
    st.integers(min_value=0, max_value=2**20),
)
def test_streams_never_alias(city_seed, shard_id):
    """The shard-seed and city-channel streams are mutually disjoint and
    never echo the raw city seed."""
    s = shard_seed(city_seed, shard_id)
    k = city_channel_key(city_seed)
    assert s != k
    assert s != city_seed or k != city_seed  # both echoing is impossible
    assert 0 <= s < 2**63 and 0 <= k < 2**63


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=1.0, max_value=500.0),
)
def test_tiling_geometry_roundtrip(rows, cols, seed, tile_side):
    tiling = Tiling(rows, cols, tile_side)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(
        [0, 0], [cols * tile_side, rows * tile_side], size=(16, 2)
    )
    tiles = tiling.tile_of(pts)
    assert np.all((0 <= tiles) & (tiles < tiling.count))
    for t in range(tiling.count):
        # neighbor symmetry
        for u in tiling.neighbors(t):
            assert t in tiling.neighbors(u)
        # a tile's own origin-corner quadrant maps back to it
        ox, oy = tiling.origin(t)
        probe = np.array([[ox + tile_side * 0.5, oy + tile_side * 0.5]])
        assert tiling.tile_of(probe)[0] == t
