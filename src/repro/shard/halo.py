"""Halo exchange: cross-tile proximity at shard borders.

Shards simulate their tiles independently; devices near a tile border
can additionally be in proximity of devices in neighbouring tiles.  The
halo layer finds those **cross-tile** links deterministically:

* Each shard exports its **border band** — devices within the halo
  radius of its tile's border (:func:`border_band`).  A cross-tile pair
  within the radius necessarily has both endpoints inside their tiles'
  bands (the segment between them crosses the shared border), so bands
  are a lossless exchange set.
* Candidate pairs come from the same :class:`~repro.radio.spatial.CellGrid`
  machinery the network build uses — cell side equal to the radius, the
  half-neighbourhood offsets covering every adjacent cell pair exactly
  once — followed by the exact distance filter (:func:`cross_pairs`).
* Every cross-tile pair is **owned by exactly one shard**: the one with
  the smaller tile id.  The union over shards of
  ``cross_pairs(..., owner=s)`` is a partition of the cross-tile pairs —
  no drops, no double counting (``tests/test_properties_shard.py``).
* Link power uses the city-level channel: the Table-I path loss plus
  hashed shadowing keyed on :func:`~repro.shard.tiling.city_channel_key`
  over **global** device ids (:func:`cross_link_power`) — a pure
  function of (city seed, global pair), independent of sharding layout.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.core.config import PaperConfig
from repro.radio.pathloss import max_range_m
from repro.radio.shadowing import HashedShadowing
from repro.radio.spatial import DEFAULT_CHUNK_PAIRS, CellGrid
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


def cross_pairs(
    positions_city: np.ndarray,
    ids: np.ndarray,
    tile_ids: np.ndarray,
    radius_m: float,
    *,
    owner: int | None = None,
    max_chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All cross-tile pairs within ``radius_m``, as global-id arrays.

    Parameters
    ----------
    positions_city:
        ``(m, 2)`` city-frame coordinates of the devices under
        consideration (typically the union of border bands).
    ids:
        ``(m,)`` global device ids, parallel to ``positions_city``.
    tile_ids:
        ``(m,)`` owning tile per device.
    owner:
        When given, keep only pairs owned by this shard — the pair's
        smaller tile id.  ``None`` returns every cross-tile pair.

    Returns ``(gi, gj, dist)`` with ``gi < gj`` globally, sorted by
    ``(gi, gj)`` — a canonical order independent of input permutation
    and chunking.
    """
    positions = np.asarray(positions_city, dtype=float)
    ids = np.asarray(ids, dtype=np.int64)
    tiles = np.asarray(tile_ids, dtype=np.int64)
    if radius_m <= 0 or positions.shape[0] < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=float)

    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_d: list[np.ndarray] = []
    grid = CellGrid(positions, radius_m)
    x = np.ascontiguousarray(positions[:, 0])
    y = np.ascontiguousarray(positions[:, 1])
    r2 = radius_m * radius_m
    for ci, cj in grid.pair_chunks(max_chunk_pairs=max_chunk_pairs):
        keep = tiles[ci] != tiles[cj]
        if owner is not None:
            keep &= np.minimum(tiles[ci], tiles[cj]) == owner
        ci, cj = ci[keep], cj[keep]
        if ci.size == 0:
            continue
        dx = x[ci] - x[cj]
        dy = y[ci] - y[cj]
        d2 = dx * dx + dy * dy
        near = d2 <= r2
        ci, cj = ci[near], cj[near]
        if ci.size == 0:
            continue
        gi, gj = ids[ci], ids[cj]
        lo = np.minimum(gi, gj)
        hi = np.maximum(gi, gj)
        out_i.append(lo)
        out_j.append(hi)
        out_d.append(np.sqrt(d2[near]))
    if not out_i:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=float)
    gi = np.concatenate(out_i)
    gj = np.concatenate(out_j)
    dist = np.concatenate(out_d)
    order = np.lexsort((gj, gi))
    return gi[order], gj[order], dist[order]


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
    if cfg.shadowing_sigma_db > 0:
        shadow = HashedShadowing(
            cfg.shadowing_sigma_db,
            city.channel_key(),
            clip_sigma=cfg.shadow_clip_sigma,
        ).link_db(np.asarray(gi, dtype=np.int64), np.asarray(gj, dtype=np.int64))
    else:
        shadow = 0.0
    return cfg.tx_power_dbm - loss - shadow


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
    """Streaming cross-tile link evaluation: candidates never materialize.

    Equivalent to ``cross_pairs`` → ``cross_link_power`` → threshold
    filter, but fused per candidate chunk, so peak memory is bounded by
    the chunk size instead of the candidate count — at city scale the
    distance-passing candidates outnumber the surviving links by orders
    of magnitude.  Returns ``(candidates, gi, gj, power_dbm)`` with the
    link arrays in the canonical ``(gi, gj)`` order; values are bitwise
    identical to the unfused path (elementwise float ops, order-free).
    """
    cfg = city.base
    positions = np.asarray(positions_city, dtype=float)
    ids = np.asarray(ids, dtype=np.int64)
    tiles = np.asarray(tile_ids, dtype=np.int64)
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=float),
    )
    if radius_m <= 0 or positions.shape[0] < 2:
        return 0, *empty
    pathloss = _pathloss_for(cfg)
    shadowing = (
        HashedShadowing(
            cfg.shadowing_sigma_db,
            city.channel_key(),
            clip_sigma=cfg.shadow_clip_sigma,
        )
        if cfg.shadowing_sigma_db > 0
        else None
    )
    grid = CellGrid(positions, radius_m)
    x = np.ascontiguousarray(positions[:, 0])
    y = np.ascontiguousarray(positions[:, 1])
    r2 = radius_m * radius_m
    candidates = 0
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_p: list[np.ndarray] = []
    for ci, cj in grid.pair_chunks(max_chunk_pairs=max_chunk_pairs):
        keep = tiles[ci] != tiles[cj]
        if owner is not None:
            keep &= np.minimum(tiles[ci], tiles[cj]) == owner
        ci, cj = ci[keep], cj[keep]
        if ci.size == 0:
            continue
        dx = x[ci] - x[cj]
        dy = y[ci] - y[cj]
        d2 = dx * dx + dy * dy
        near = d2 <= r2
        ci, cj = ci[near], cj[near]
        if ci.size == 0:
            continue
        candidates += int(ci.size)
        a, b = ids[ci], ids[cj]
        gi = np.minimum(a, b)
        gj = np.maximum(a, b)
        power = cfg.tx_power_dbm - pathloss.loss_db(np.sqrt(d2[near]))
        if shadowing is not None:
            power = power - shadowing.link_db(gi, gj)
        ok = power >= cfg.threshold_dbm
        if ok.any():
            out_i.append(gi[ok])
            out_j.append(gj[ok])
            out_p.append(power[ok])
    if not out_i:
        return candidates, *empty
    gi = np.concatenate(out_i)
    gj = np.concatenate(out_j)
    power = np.concatenate(out_p)
    order = np.lexsort((gj, gi))
    return candidates, gi[order], gj[order], power[order]


def links_digest(gi: np.ndarray, gj: np.ndarray, power_dbm: np.ndarray) -> str:
    """Bitwise-sensitive digest of a cross-link set (raw array bytes)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(gi, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(gj, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(power_dbm, dtype=np.float64).tobytes())
    return h.hexdigest()
