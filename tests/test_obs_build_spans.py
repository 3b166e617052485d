"""Whole-stage spans of the network build and the shard halo."""

from __future__ import annotations

import numpy as np

from repro.cli import main
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.obs import Observability, activate
from repro.obs.profile import profile_table, walk_stacks
from repro.shard.halo import cross_links, cross_radius_m
from repro.shard.tiling import CityConfig

BUILD_STAGES = ("build.links", "build.csr", "build.connectivity")


def _build_and_halo(obs: Observability, n: int = 4096) -> None:
    config = PaperConfig(seed=1).with_devices(n, keep_density=True)
    with activate(obs):
        net = D2DNetwork(config)
        city = CityConfig(config, 2, 2)
        cross_links(
            city,
            net.positions,
            np.arange(n, dtype=np.int64),
            city.tiling.tile_of(net.positions),
            cross_radius_m(config),
        )


def test_profile_shows_one_span_per_stage_at_scale():
    """n = 4096 evaluates hundreds of block slices; each stage is still
    one span, the build stages nested under ``build``."""
    obs = Observability()
    _build_and_halo(obs)
    calls = {row.name: row.calls for row in profile_table(obs.spans)}
    assert calls == {"build": 1, **dict.fromkeys(BUILD_STAGES, 1), "halo.links": 1}
    paths = {path for path, _ in walk_stacks(obs.spans)}
    assert {("build", stage) for stage in BUILD_STAGES} <= paths
    assert ("halo.links",) in paths


def test_disabled_recorder_records_nothing():
    obs = Observability(enabled=False)
    _build_and_halo(obs, n=512)
    assert obs.spans.roots == []
    assert profile_table(obs.spans) == []


def test_repro_profile_prints_build_stages(capsys):
    assert main(["profile", "fig3", "--sizes", "20", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    for stage in ("build", *BUILD_STAGES):
        assert f"{stage} " in out or f"{stage}[" in out
