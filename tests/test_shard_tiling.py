"""Unit tests: tiling geometry, shard configs, seeds, halo primitives."""

import math

import numpy as np
import pytest

from repro.core.config import PaperConfig
from repro.radio.spatial import DEFAULT_CHUNK_PAIRS
from repro.shard.halo import (
    cross_link_power,
    cross_links,
    cross_radius_m,
    halo_reach,
    links_digest,
)
from repro.shard.tiling import (
    CityConfig,
    Tiling,
    city_channel_key,
    parse_tiles,
    shard_seed,
)
from tests.references import cross_pairs


class TestParseTiles:
    def test_parses_standard_specs(self):
        assert parse_tiles("2x2") == (2, 2)
        assert parse_tiles("3X4") == (3, 4)
        assert parse_tiles(" 1x1 ") == (1, 1)

    @pytest.mark.parametrize("bad", ("", "2", "2x", "x2", "0x2", "2x0", "axb"))
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_tiles(bad)


class TestTiling:
    def test_row_major_ids(self):
        t = Tiling(2, 3, 10.0)
        assert t.count == 6
        assert t.cell(0) == (0, 0)
        assert t.cell(5) == (1, 2)
        assert t.origin(4) == (10.0, 10.0)

    def test_tile_of_clips_far_edges(self):
        t = Tiling(2, 2, 50.0)
        pts = np.array([[0.0, 0.0], [100.0, 100.0], [50.0, 0.0], [99.9, 0.1]])
        assert t.tile_of(pts).tolist() == [0, 3, 1, 1]

    def test_neighbors_reach(self):
        t = Tiling(3, 3, 10.0)
        assert t.neighbors(4) == [0, 1, 2, 3, 5, 6, 7, 8]
        assert t.neighbors(0) == [1, 3, 4]
        assert t.neighbors(0, reach=2) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Tiling(0, 1, 10.0)
        with pytest.raises(ValueError):
            Tiling(1, 1, 0.0)
        with pytest.raises(ValueError):
            Tiling(2, 2, 10.0).cell(4)
        with pytest.raises(ValueError):
            Tiling(2, 2, 10.0).neighbors(0, reach=0)


class TestCityConfig:
    def test_shard_counts_balanced_and_total(self):
        city = CityConfig(PaperConfig(n_devices=130, seed=1), 3, 3)
        counts = city.shard_counts()
        assert sum(counts) == 130
        assert max(counts) - min(counts) <= 1
        offsets = [city.device_offset(s) for s in range(city.count)]
        assert offsets == [sum(counts[:s]) for s in range(city.count)]

    def test_shard_config_is_standalone_equivalent(self):
        city = CityConfig(PaperConfig(n_devices=64, seed=7), 2, 2)
        cfg = city.shard_config(3)
        assert cfg.n_devices == 16
        assert cfg.area_side_m == pytest.approx(city.tile_side_m)
        assert cfg.seed == shard_seed(7, 3)
        assert cfg.faults == city.base.faults

    def test_rectangular_tiles_rejected(self):
        with pytest.raises(ValueError, match="square"):
            CityConfig(PaperConfig(n_devices=64, seed=1), 2, 4)

    def test_underpopulated_city_rejected(self):
        with pytest.raises(ValueError, match="devices"):
            CityConfig(PaperConfig(n_devices=6, seed=1), 2, 2)

    def test_out_of_range_shard_rejected(self):
        city = CityConfig(PaperConfig(n_devices=64, seed=1), 2, 2)
        with pytest.raises(ValueError):
            city.shard_config(4)
        with pytest.raises(ValueError):
            city.device_offset(-1)


class TestSeeds:
    def test_shard_seed_pure_and_distinct(self):
        assert shard_seed(1, 0) == shard_seed(1, 0)
        assert shard_seed(1, 0) != shard_seed(1, 1)
        assert shard_seed(1, 0) != shard_seed(2, 0)
        with pytest.raises(ValueError):
            shard_seed(1, -1)

    def test_city_channel_key_disjoint_from_shard_seeds(self):
        key = city_channel_key(1)
        assert key != 1
        assert key not in {shard_seed(1, s) for s in range(64)}


class TestHaloPrimitives:
    def test_cross_radius_uses_max_shadow_gain(self):
        cfg = PaperConfig(n_devices=50, seed=1)
        with_shadow = cross_radius_m(cfg)
        without = cross_radius_m(cfg.replace(shadowing_sigma_db=0.0))
        assert with_shadow > without > 0

    def test_halo_reach_spans_radius(self):
        t = Tiling(4, 4, 100.0)
        assert halo_reach(t, 50.0) == 1
        assert halo_reach(t, 150.0) == 2
        assert halo_reach(t, 100.0) == 1
        assert halo_reach(t, 0.0) == 1  # floor

    def test_cross_link_power_is_shard_independent(self):
        base = PaperConfig(n_devices=64, seed=1)
        gi = np.array([3, 17], dtype=np.int64)
        gj = np.array([40, 55], dtype=np.int64)
        dist = np.array([25.0, 60.0])
        a = cross_link_power(CityConfig(base, 2, 2), gi, gj, dist)
        b = cross_link_power(CityConfig(base, 1, 1), gi, gj, dist)
        assert np.array_equal(a, b), "city channel must not depend on tiling"
        c = cross_link_power(
            CityConfig(base.replace(seed=2), 2, 2), gi, gj, dist
        )
        assert not np.array_equal(a, c)

    def test_links_digest_sensitive_to_every_array(self):
        gi = np.array([1, 2], dtype=np.int64)
        gj = np.array([5, 6], dtype=np.int64)
        p = np.array([-80.0, -90.0])
        base = links_digest(gi, gj, p)
        assert links_digest(gi, gj, p) == base
        assert links_digest(gj, gi, p) != base
        assert links_digest(gi, gj, p + 1e-9) != base

    def test_one_by_one_city_has_no_cross_links(self):
        from repro.shard import run_city

        city = CityConfig(PaperConfig(n_devices=32, seed=1), 1, 1)
        res = run_city(city, algorithms=("st",))
        assert res.halo["links"] == 0
        assert res.halo["candidates"] == 0
        assert res.messages == sum(
            int(s["runs"]["st"]["result"]["messages"]) for s in res.shards
        )

    def test_cross_links_matches_unfused_pipeline(self):
        """The streaming path must be bitwise-equal to
        cross_pairs → cross_link_power → threshold filter."""
        city = CityConfig(PaperConfig(n_devices=256, seed=3), 2, 2)
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, city.base.area_side_m, size=(256, 2))
        ids = np.arange(256, dtype=np.int64)
        tiles = city.tiling.tile_of(positions)
        radius = cross_radius_m(city.base)

        gi, gj, dist = cross_pairs(positions, ids, tiles, radius, owner=0)
        power = cross_link_power(city, gi, gj, dist)
        keep = power >= city.base.threshold_dbm
        n_cand, fgi, fgj, fpower = cross_links(
            city, positions, ids, tiles, radius, owner=0
        )
        assert n_cand == gi.size
        assert np.array_equal(fgi, gi[keep])
        assert np.array_equal(fgj, gj[keep])
        assert np.array_equal(fpower, power[keep])
        assert links_digest(fgi, fgj, fpower) == links_digest(
            gi[keep], gj[keep], power[keep]
        )

    def test_cross_links_chunk_size_free(self):
        """Candidate chunking only changes batch shape: the default
        chunk and a 64× larger one produce the same link bytes."""
        base = PaperConfig(seed=3).with_devices(4096, keep_density=True)
        city = CityConfig(base, 2, 2)
        rng = np.random.default_rng(1)
        positions = rng.uniform(0, base.area_side_m, size=(4096, 2))
        ids = np.arange(4096, dtype=np.int64)
        tiles = city.tiling.tile_of(positions)
        radius = cross_radius_m(base)
        n_cand, gi, gj, power = cross_links(city, positions, ids, tiles, radius)
        big = cross_links(
            city, positions, ids, tiles, radius, max_chunk_pairs=1 << 21
        )
        assert n_cand > DEFAULT_CHUNK_PAIRS  # the default really chunks
        assert big[0] == n_cand
        assert links_digest(gi, gj, power) == links_digest(*big[1:])

    def test_reach_covers_diagonal_neighbors(self):
        """A radius spanning k tiles reaches every tile whose band can
        hold the far endpoint (Chebyshev ball of radius k)."""
        t = Tiling(5, 5, 10.0)
        reach = halo_reach(t, 25.0)
        assert reach == 3
        assert math.dist(t.origin(0), t.origin(18)) > 25.0
        assert 18 in t.neighbors(12, reach=reach)
