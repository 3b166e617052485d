"""Steady-state world tests: churn driver, bounds, views, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import PaperConfig
from repro.discovery.live import LiveNeighborView
from repro.service.world import (
    SteadyStateWorld,
    WorldConfig,
    WorldPausedError,
    poisson_from_uniform,
)
from repro.spanningtree.liveview import FragmentView


def make_world(seed: int = 3, n: int = 48, **kwargs) -> SteadyStateWorld:
    defaults = dict(
        arrival_rate=3.0, departure_rate=3.0, min_population=4
    )
    defaults.update(kwargs)
    return SteadyStateWorld(
        WorldConfig(base=PaperConfig(n_devices=n, seed=seed), **defaults)
    )


class TestWorldConfig:
    def test_defaults_resolve(self):
        cfg = WorldConfig(base=PaperConfig(n_devices=64))
        assert cfg.resolved_initial_population == 48
        assert cfg.resolved_max_population == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(arrival_rate=-1.0),
            dict(step_ms=0.0),
            dict(min_population=0),
            dict(max_population=100),
            dict(min_population=40, max_population=30),
            dict(initial_population=1, min_population=2),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            WorldConfig(base=PaperConfig(n_devices=32), **kwargs)


class TestPoissonInversion:
    def test_zero_rate_is_zero(self):
        assert poisson_from_uniform(0.0, 0.999) == 0

    def test_monotone_in_u(self):
        ks = [poisson_from_uniform(4.0, u / 100) for u in range(100)]
        assert ks == sorted(ks)

    def test_mean_roughly_matches_rate(self):
        lam = 5.0
        draws = [poisson_from_uniform(lam, (i + 0.5) / 2048) for i in range(2048)]
        assert abs(sum(draws) / len(draws) - lam) < 0.2

    def test_tail_is_capped(self):
        assert poisson_from_uniform(2.0, 1.0) <= int(2 + 12 * math.sqrt(2) + 16)


class TestStepping:
    def test_population_stays_within_bounds(self):
        world = make_world(
            seed=9, arrival_rate=6.0, departure_rate=6.0,
            min_population=10, max_population=20, initial_population=15,
        )
        for _ in range(25):
            world.step()
            assert 10 <= world.population <= 20

    def test_clock_advances_by_step_ms(self):
        world = make_world(step_ms=250.0)
        world.step()
        world.step()
        assert world.now_ms == 500.0

    def test_active_mask_tracks_session(self):
        world = make_world()
        for _ in range(10):
            world.step()
            assert set(np.flatnonzero(world.active_mask)) == world.session.active

    def test_churn_schedule_is_pure(self):
        world = make_world(seed=21)
        before = [world.churn_schedule(s) for s in range(8)]
        world.step()
        world.step()
        assert [world.churn_schedule(s) for s in range(8)] == before

    def test_same_seed_same_event_stream(self):
        def stream(steps):
            world = make_world(seed=13)
            return [
                (e.kind, e.device)
                for _ in range(steps)
                for e in world.step()
            ]

        assert stream(8) == stream(8)

    def test_optimality_oracle_is_off(self):
        world = make_world()
        events = world.step()
        assert world.session.track_optimality is False
        assert all(math.isnan(e.optimality_ratio) for e in events)

    def test_paused_step_raises_and_resume_recovers(self):
        world = make_world()
        reference = make_world()
        expected = [
            (e.kind, e.device) for _ in range(4) for e in reference.step()
        ]
        fired = [(e.kind, e.device) for e in world.step()]
        world.pause()
        with pytest.raises(WorldPausedError):
            world.step()
        world.resume()
        for _ in range(3):
            fired.extend((e.kind, e.device) for e in world.step())
        assert fired == expected  # pause/resume consumed no randomness


class TestFragmentView:
    def test_lazy_rebuild_only_on_tree_change(self):
        world = make_world()
        view = world.fragment_view()
        assert world.fragment_view() is view  # cached
        world.step()
        assert world.fragment_view() is not view

    def test_membership_partitions_active_set(self):
        world = make_world()
        for _ in range(5):
            world.step()
        view = world.fragment_view()
        seen: set[int] = set()
        for frag in view.fragments():
            assert frag.fragment_id == frag.members[0]
            assert not seen & set(frag.members)
            seen |= set(frag.members)
        assert seen == world.session.active
        assert view.largest == max(view.sizes(), default=0)

    def test_inactive_device_has_no_fragment(self):
        world = make_world()
        inactive = next(
            d for d in range(world.network.n) if not world.is_active(d)
        )
        assert world.fragment_view().fragment_of(inactive) is None

    def test_spanning_matches_session(self):
        world = make_world()
        for _ in range(6):
            world.step()
            assert world.fragment_view().is_spanning == world.session.is_spanning

    def test_direct_construction(self):
        mask = np.array([True, True, True, False])
        view = FragmentView(4, [(0, 1)], mask, version=7)
        assert view.count == 2
        assert view.version == 7
        assert view.fragment_of(0).members == (0, 1)
        assert view.fragment_of(2).size == 1
        assert view.fragment_of(3) is None
        assert view.sizes() == [2, 1]


class TestLiveNeighborView:
    def test_filters_inactive_neighbors(self):
        world = make_world()
        ue = next(d for d in range(world.network.n) if world.is_active(d))
        for nb in world.neighbors.near(ue):
            assert world.is_active(nb.device)

    def test_orders_by_power_then_id(self):
        world = make_world()
        neighbors = world.neighbors.near(0)
        keys = [(-nb.power_dbm, nb.device) for nb in neighbors]
        assert keys == sorted(keys)

    def test_sees_churn_without_rebuild(self):
        world = make_world(seed=4)
        view = world.neighbors
        before = {nb.device for nb in view.near(0)}
        for _ in range(6):
            world.step()
        after = {nb.device for nb in view.near(0)}
        # same object, fresh answer: at least one neighbour churned
        assert view is world.neighbors
        assert before != after or world.session.active == set(
            np.flatnonzero(world.active_mask)
        )

    def test_out_of_range_raises(self):
        world = make_world()
        with pytest.raises(ValueError):
            world.neighbors.near(world.network.n)

    def test_rejects_wrong_mask_shape(self):
        world = make_world()
        with pytest.raises(ValueError):
            LiveNeighborView(world.network, np.zeros(3, dtype=bool))


class TestSparseWorld:
    def test_sparse_backend_never_densifies(self):
        world = make_world(
            n=2048, seed=2, arrival_rate=4.0, departure_rate=4.0,
            min_population=64,
        )
        world.step()
        world.step()
        assert world.network._adjacency is None  # still CSR-only
        neighbors = world.neighbors.near(0)
        assert neighbors and world.fragment_view().count >= 1


class TestTelemetry:
    def test_churn_events_reach_the_bus(self):
        world = make_world()
        world.step()
        topics = {e.topic for e in world.obs.bus.retained()}
        assert "churn" in topics and "fragments" in topics

    def test_sse_bridge_collects_frames(self):
        world = make_world()
        world.step()
        frames, _ = world.sse.frames_since(0)
        assert any('"topic":"churn"' in f for f in frames)

    def test_population_gauge_tracks(self):
        world = make_world()
        world.step()
        from repro.obs import render_prometheus

        text = render_prometheus(world.obs.metrics)
        assert f"repro_world_population {world.population}" in text
