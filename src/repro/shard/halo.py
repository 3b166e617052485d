"""Halo exchange: cross-tile proximity at shard borders.

Shards simulate their tiles independently; devices near a tile border
can additionally be in proximity of devices in neighbouring tiles.  The
halo layer finds those **cross-tile** links deterministically:

* Each shard exports its **border band** — devices within the halo
  radius of its tile's border (:func:`border_band`).  A cross-tile pair
  within the radius necessarily has both endpoints inside their tiles'
  bands (the segment between them crosses the shared border), so bands
  are a lossless exchange set.
* Candidate pairs come from the same cell-grid block slices
  (:func:`~repro.radio.spatial.pair_slices`) the network build uses —
  cell side equal to the radius, every adjacent cell pair exactly once —
  followed by the exact distance filter (:func:`cross_pairs`), and
  :func:`cross_links` evaluates them with the build's
  :class:`~repro.radio.linkeval.LinkEvaluator`.
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
from repro.obs import active_span
from repro.radio.linkeval import LinkEvaluator
from repro.radio.pathloss import max_range_m
from repro.radio.shadowing import HashedShadowing, NoShadowing
from repro.radio.spatial import DEFAULT_CHUNK_PAIRS, pair_slices
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
    mask = _cross_mask(tiles, owner)
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_d: list[np.ndarray] = []
    r2 = radius_m * radius_m
    for rows, cols, d2, valid in pair_slices(
        positions, radius_m, max_chunk_pairs=max_chunk_pairs
    ):
        near = (d2 <= r2) & mask(rows, cols)
        if valid is not None:
            near &= valid
        r, c = np.nonzero(near)
        if r.size == 0:
            continue
        a, b = ids[rows[r]], ids[cols[c]]
        out_i.append(np.minimum(a, b))
        out_j.append(np.maximum(a, b))
        out_d.append(np.sqrt(d2[r, c]))
    if not out_i:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=float)
    return _sorted_pairs(
        np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_d)
    )


def _cross_mask(tiles: np.ndarray, owner: int | None):
    """Block-slice mask of cross-tile pairs (owned by ``owner`` if set)."""

    def mask(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        tr = tiles[rows][:, None]
        tc = tiles[cols][None, :]
        keep = tr != tc
        if owner is not None:
            keep &= np.minimum(tr, tc) == owner
        return keep

    return mask


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
    """Cross-tile links: candidates never materialize.

    Equivalent to ``cross_pairs`` → ``cross_link_power`` → threshold
    filter, but evaluated per block slice by the network build's
    :class:`~repro.radio.linkeval.LinkEvaluator` (early rejection on the
    shadowing hash), so peak memory is bounded by the slice size instead
    of the candidate count — at city scale the distance-passing
    candidates outnumber the surviving links by orders of magnitude.
    Returns ``(candidates, gi, gj, power_dbm)``: ``candidates`` counts
    the distance-passing cross-tile pairs; the link arrays are in the
    canonical ``(gi, gj)`` order, with values bitwise identical to the
    unfused path (elementwise float ops, order-free).
    """
    cfg = city.base
    positions = np.asarray(positions_city, dtype=float)
    ids = np.asarray(ids, dtype=np.int64)
    tiles = np.asarray(tile_ids, dtype=np.int64)
    with active_span("halo.links", devices=int(positions.shape[0])):
        candidates, gi, gj, power = LinkEvaluator(
            _pathloss_for(cfg),
            tx_power_dbm=cfg.tx_power_dbm,
            floor_dbm=cfg.threshold_dbm,
            shadowing=_city_shadowing(city),
            radius_m=radius_m,
        ).links(
            positions,
            ids,
            pair_mask=_cross_mask(tiles, owner),
            count_candidates=True,
            max_chunk_pairs=max_chunk_pairs,
        )
        return (candidates, *_sorted_pairs(gi, gj, power))


def links_digest(gi: np.ndarray, gj: np.ndarray, power_dbm: np.ndarray) -> str:
    """Bitwise-sensitive digest of a cross-link set (raw array bytes)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(gi, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(gj, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(power_dbm, dtype=np.float64).tobytes())
    return h.hexdigest()
