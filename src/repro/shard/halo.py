"""Halo exchange: cross-tile proximity at shard borders.

Shards simulate their tiles independently; devices near a tile border
can additionally be in proximity of devices in neighbouring tiles.  The
halo layer finds those **cross-tile** links deterministically:

* Each shard exports its **border band** — devices within the halo
  radius of its tile's border (:func:`border_band`).  A cross-tile pair
  within the radius necessarily has both endpoints inside their tiles'
  bands (the segment between them crosses the shared border), so bands
  are a lossless exchange set.
* Every cross-tile pair is **owned by exactly one shard**: the one with
  the smaller tile id.  Shard ``s`` evaluates the tile pairs ``(s, t)``,
  ``t > s`` (:func:`owned_tile_pairs`), so the union over shards is a
  partition of the cross-tile pairs — no drops, no double counting
  (``tests/test_properties_shard.py``).
* :func:`cross_links` evaluates each owned tile pair with the network
  build's :class:`~repro.radio.linkeval.LinkEvaluator` over bipartite
  cell-grid block slices (:func:`~repro.radio.spatial.pair_slices` with
  ``split``): only tile ``s`` × tile ``t`` pairs in adjacent cells are
  hashed, each once — no same-tile or unowned pair is touched.
* Link power uses the city-level channel: the Table-I path loss plus
  hashed shadowing keyed on :func:`~repro.shard.tiling.city_channel_key`
  over **global** device ids (:func:`cross_link_power`) — a pure
  function of (city seed, global pair), independent of sharding layout.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterator

import numpy as np

from repro.core.config import PaperConfig
from repro.obs import active_span
from repro.radio.linkeval import LinkEvaluator
from repro.radio.pathloss import max_range_m
from repro.radio.shadowing import HashedShadowing, NoShadowing
from repro.radio.spatial import DEFAULT_CHUNK_PAIRS
from repro.shard.tiling import CityConfig, Tiling


def _pathloss_for(config: PaperConfig):
    # the same model selection D2DNetwork performs
    from repro.core.network import _pathloss_for as select

    return select(config)


def cross_radius_m(config: PaperConfig) -> float:
    """Maximum distance at which a cross-tile pair can be in proximity.

    Proximity is **mean** received power clearing the threshold, so the
    bound is the range at the maximum possible shadowing gain
    (``sigma × clip``); fading never enters the mean.
    """
    max_gain = (
        config.shadowing_sigma_db * config.shadow_clip_sigma
        if config.shadowing_sigma_db > 0
        else 0.0
    )
    return max_range_m(
        _pathloss_for(config),
        config.tx_power_dbm,
        config.threshold_dbm - max_gain,
        hi=config.area_side_m * math.sqrt(2.0) + 1.0,
    )


def halo_reach(tiling: Tiling, radius_m: float) -> int:
    """How many tiles the halo radius can span (Chebyshev reach)."""
    return max(1, int(math.ceil(radius_m / tiling.tile_side_m)))


def border_band(
    positions_city: np.ndarray, tiling: Tiling, tile: int, radius_m: float
) -> np.ndarray:
    """Boolean mask: positions within ``radius_m`` of the tile's border.

    ``positions_city`` are city-frame coordinates of the tile's own
    devices.  The band includes the outer city boundary sides — a few
    extra devices at the city edge, in exchange for a rule that depends
    only on the tile geometry.
    """
    positions = np.asarray(positions_city, dtype=float)
    x0, y0 = tiling.origin(tile)
    side = tiling.tile_side_m
    dist_to_border = np.minimum.reduce(
        [
            positions[:, 0] - x0,
            (x0 + side) - positions[:, 0],
            positions[:, 1] - y0,
            (y0 + side) - positions[:, 1],
        ]
    )
    return dist_to_border <= radius_m


def owned_tile_pairs(
    tile_ids: np.ndarray, owner: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Index arrays ``(a, b)`` of the devices in tiles ``s < t``, one per
    tile pair present in ``tile_ids`` with ``s == owner`` (every ``s``
    when ``owner`` is ``None``).  Each pair ``a[i]``–``b[j]`` is owned by
    ``s``, and every cross-tile pair is in exactly one ``a × b``."""
    tiles = np.asarray(tile_ids, dtype=np.int64)
    present = np.unique(tiles)
    members = [np.flatnonzero(tiles == t) for t in present]
    for i, s in enumerate(present):
        if owner is None or s == owner:
            for j in range(i + 1, present.size):
                yield members[i], members[j]


def _sorted_pairs(
    gi: np.ndarray, gj: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique pairs and their values in canonical ``(gi, gj)`` order."""
    order = np.argsort((gi << 32) | gj)
    return gi[order], gj[order], values[order]


def cross_link_power(
    city: CityConfig, gi: np.ndarray, gj: np.ndarray, dist_m: np.ndarray
) -> np.ndarray:
    """Mean received power (dBm) on cross-tile links, city channel.

    Same composition as the in-shard budgets — ``tx − loss − shadow`` —
    but with shadowing keyed on the city channel key over global ids, so
    the value is a pure function of (city seed, global pair, distance)
    no matter which shard evaluates it.
    """
    cfg = city.base
    loss = _pathloss_for(cfg).loss_db(np.asarray(dist_m, dtype=float))
    shadow = _city_shadowing(city).link_db(
        np.asarray(gi, dtype=np.int64), np.asarray(gj, dtype=np.int64)
    )
    return cfg.tx_power_dbm - loss - shadow


def _city_shadowing(city: CityConfig):
    """The city channel's shadowing: keyed on the city channel key."""
    cfg = city.base
    if cfg.shadowing_sigma_db <= 0:
        return NoShadowing()
    return HashedShadowing(
        cfg.shadowing_sigma_db,
        city.channel_key(),
        clip_sigma=cfg.shadow_clip_sigma,
    )


def cross_links(
    city: CityConfig,
    positions_city: np.ndarray,
    ids: np.ndarray,
    tile_ids: np.ndarray,
    radius_m: float,
    *,
    owner: int | None = None,
    max_chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Cross-tile links within ``radius_m`` (owned by ``owner`` if set):
    candidates never materialize.

    Equivalent to distance filter → :func:`cross_link_power` → threshold
    filter over every owned cross-tile pair, but evaluated per block
    slice by the network build's
    :class:`~repro.radio.linkeval.LinkEvaluator` (early rejection on the
    shadowing hash), one bipartite evaluation per owned tile pair
    (:func:`owned_tile_pairs`), so peak memory is bounded by the slice
    size instead of the candidate count — at city scale the
    distance-passing candidates outnumber the surviving links by orders
    of magnitude.  Returns ``(candidates, gi, gj, power_dbm)``:
    ``candidates`` counts the distance-passing owned cross-tile pairs;
    the link arrays are in the canonical ``(gi, gj)`` order, with values
    bitwise identical to the unfused path (elementwise float ops,
    order-free).
    """
    cfg = city.base
    positions = np.asarray(positions_city, dtype=float)
    ids = np.asarray(ids, dtype=np.int64)
    with active_span("halo.links", devices=int(positions.shape[0])):
        evaluator = LinkEvaluator(
            _pathloss_for(cfg),
            tx_power_dbm=cfg.tx_power_dbm,
            floor_dbm=cfg.threshold_dbm,
            shadowing=_city_shadowing(city),
            radius_m=radius_m,
        )
        candidates = 0
        empty = np.empty(0, dtype=np.int64)
        parts = [(empty, empty, np.empty(0))]
        for a, b in owned_tile_pairs(tile_ids, owner):
            sub = np.concatenate((a, b))
            count, gi, gj, power = evaluator.links(
                positions[sub],
                ids[sub],
                split=a.size,
                count_candidates=True,
                max_chunk_pairs=max_chunk_pairs,
            )
            candidates += count
            parts.append((gi, gj, power))
        gi, gj, power = (np.concatenate(col) for col in zip(*parts))
        return (candidates, *_sorted_pairs(gi, gj, power))


def links_digest(gi: np.ndarray, gj: np.ndarray, power_dbm: np.ndarray) -> str:
    """Bitwise-sensitive digest of a cross-link set (raw array bytes)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(gi, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(gj, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(power_dbm, dtype=np.float64).tobytes())
    return h.hexdigest()
