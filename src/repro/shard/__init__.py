"""Multi-cell sharded execution tier (city scale).

Partition a city-sized region into an ``R × C`` grid of square tiles
(:class:`~repro.shard.tiling.CityConfig`); run each tile as an
independent shard — an ordinary single-region simulation whose seed
derives from the city seed through the counter hash — across a process
pool with deterministic reassembly (:func:`~repro.shard.runner.
run_city`); resolve cross-tile proximity at tile borders via halo
exchange (:mod:`repro.shard.halo`).  The conformance bridge
(:mod:`repro.shard.conformance`) captures sharded runs as golden traces
and diffs them against standalone per-shard runs.

See ``docs/sharding.md`` for the tile/halo model and the determinism
contract.
"""

from repro.shard.conformance import (
    capture_city,
    diff_shard,
    replay_city,
    shard_default_name,
)
from repro.shard.halo import (
    border_band,
    cross_links,
    cross_radius_m,
    halo_reach,
    links_digest,
)
from repro.shard.runner import CityResult, run_city
from repro.shard.tiling import CityConfig, Tiling, parse_tiles

__all__ = [
    "CityConfig",
    "CityResult",
    "Tiling",
    "border_band",
    "capture_city",
    "cross_links",
    "cross_radius_m",
    "diff_shard",
    "halo_reach",
    "links_digest",
    "parse_tiles",
    "replay_city",
    "run_city",
    "shard_default_name",
]
