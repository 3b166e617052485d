"""City tiling: square tiles, balanced shard populations, hashed seeds.

The sharding tier scales the paper's single square cell to a city-sized
region by partitioning it into an ``R × C`` grid of square tiles.  Each
tile runs as one **shard**: an ordinary single-region simulation
(:class:`~repro.core.config.PaperConfig` over the tile's side length)
whose seed derives from the city seed and the shard id through the
counter hash (:mod:`repro.radio.chanhash`) — so any shard is replayable
in isolation by constructing its :meth:`CityConfig.shard_config` and
running it exactly like a standalone scenario, and a sharded run is
bitwise-identical to those equivalent single-region runs wherever they
overlap (``tests/test_shard_parity.py``).

Device identity is global: shard ``s`` owns the contiguous id range
``[device_offset(s), device_offset(s) + shard_count(s))``.  Cross-tile
proximity at tile borders is handled by the halo layer
(:mod:`repro.shard.halo`) over these global ids.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.config import PaperConfig
from repro.radio.chanhash import derive_key, splitmix64

_U64 = np.uint64

#: Stream salts (see :mod:`repro.radio.chanhash`): shard seeds and the
#: city-level cross-tile shadowing key must never share hash inputs with
#: each other or with any in-shard stream.
SALT_SHARD_SEED = _U64(0x53484152_44534544)  # "SHARDSED"
SALT_CITY_SHADOW = _U64(0x43495459_53484144)  # "CITYSHAD"

#: Seeds stay inside the non-negative int64 range NumPy's seeding and
#: ``RandomStreams`` accept everywhere in the repo.
_SEED_MASK = (1 << 63) - 1


def shard_seed(city_seed: int, shard_id: int) -> int:
    """Per-shard deployment seed: a counter hash of (city seed, shard).

    Pure function of its inputs — replaying shard ``s`` of city seed
    ``k`` never needs the other shards.  Injective in practice across
    both arguments (SplitMix64 is a bijective mixer; the single dropped
    sign bit is the only collision source —
    ``tests/test_properties_shard.py`` pins this down).
    """
    if shard_id < 0:
        raise ValueError(f"shard_id must be >= 0, got {shard_id}")
    subkey = derive_key(city_seed, SALT_SHARD_SEED)
    return int(splitmix64(subkey ^ _U64(shard_id))) & _SEED_MASK


def city_channel_key(city_seed: int) -> int:
    """Shadowing key for cross-tile (halo) links, hashed off the city seed.

    Cross-tile links connect devices owned by different shards, so their
    shadowing cannot come from either shard's in-tile key; it is a
    city-level stream keyed on global device ids.
    """
    return int(derive_key(city_seed, SALT_CITY_SHADOW)) & _SEED_MASK


def parse_tiles(spec: str) -> tuple[int, int]:
    """Parse an ``RxC`` tiling spec (e.g. ``"2x2"``, ``"3x3"``)."""
    m = re.fullmatch(r"(\d+)[xX](\d+)", spec.strip())
    if not m:
        raise ValueError(
            f"invalid tiling spec {spec!r}; expected ROWSxCOLS, e.g. 2x2"
        )
    rows, cols = int(m.group(1)), int(m.group(2))
    if rows < 1 or cols < 1:
        raise ValueError(f"tiling must be at least 1x1, got {spec!r}")
    return rows, cols


@dataclass(frozen=True)
class Tiling:
    """Pure geometry of an ``rows × cols`` grid of square tiles.

    Tile ids are row-major: ``tile = r * cols + c`` with ``r`` the row
    (y direction) and ``c`` the column (x direction).
    """

    rows: int
    cols: int
    tile_side_m: float

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("tiling must be at least 1x1")
        if not self.tile_side_m > 0:
            raise ValueError("tile_side_m must be positive")

    @property
    def count(self) -> int:
        return self.rows * self.cols

    def cell(self, tile: int) -> tuple[int, int]:
        """(row, col) of a tile id."""
        if not 0 <= tile < self.count:
            raise ValueError(f"tile {tile} out of range for {self.count} tiles")
        return divmod(tile, self.cols)

    def origin(self, tile: int) -> tuple[float, float]:
        """City-frame (x, y) of the tile's lower-left corner."""
        r, c = self.cell(tile)
        return c * self.tile_side_m, r * self.tile_side_m

    def tile_of(self, positions: np.ndarray) -> np.ndarray:
        """Tile id per city-frame position (points on the far edges clip
        into the last row/column, so the partition is total)."""
        positions = np.asarray(positions, dtype=float)
        c = np.clip(
            np.floor(positions[..., 0] / self.tile_side_m).astype(np.int64),
            0,
            self.cols - 1,
        )
        r = np.clip(
            np.floor(positions[..., 1] / self.tile_side_m).astype(np.int64),
            0,
            self.rows - 1,
        )
        return r * self.cols + c

    def neighbors(self, tile: int, *, reach: int = 1) -> list[int]:
        """Tile ids within Chebyshev distance ``reach`` (excluding self),
        ascending.  ``reach`` is how many tiles a halo radius can span:
        ``ceil(radius / tile_side)``."""
        if reach < 1:
            raise ValueError("reach must be >= 1")
        r0, c0 = self.cell(tile)
        out = []
        for r in range(max(0, r0 - reach), min(self.rows, r0 + reach + 1)):
            for c in range(max(0, c0 - reach), min(self.cols, c0 + reach + 1)):
                if (r, c) != (r0, c0):
                    out.append(r * self.cols + c)
        return out


@dataclass(frozen=True)
class CityConfig:
    """A tiled multi-shard scenario: one base config, ``rows × cols`` tiles.

    ``base`` describes the *whole* city — ``base.n_devices`` devices over
    a ``base.area_side_m`` square — and every other knob (channel,
    protocol, faults) applies uniformly to every shard.
    Devices split across tiles as evenly as possible
    (:meth:`shard_counts`); each shard becomes an ordinary single-region
    :class:`~repro.core.config.PaperConfig` over its tile
    (:meth:`shard_config`).
    """

    base: PaperConfig
    rows: int = 1
    cols: int = 1

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("tiling must be at least 1x1")
        tile_w = self.base.area_side_m / self.cols
        tile_h = self.base.area_side_m / self.rows
        if not math.isclose(tile_w, tile_h, rel_tol=1e-12):
            raise ValueError(
                "tiles must be square (per-shard scenarios are square "
                f"regions): {self.rows}x{self.cols} over a "
                f"{self.base.area_side_m:.0f} m side gives "
                f"{tile_w:.1f} m x {tile_h:.1f} m tiles"
            )
        if self.base.n_devices < 2 * self.count:
            raise ValueError(
                f"{self.base.n_devices} devices cannot populate "
                f"{self.count} shards with >= 2 devices each"
            )

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self.rows * self.cols

    @property
    def tile_side_m(self) -> float:
        return self.base.area_side_m / self.cols

    @cached_property
    def tiling(self) -> Tiling:
        return Tiling(self.rows, self.cols, self.tile_side_m)

    def shard_counts(self) -> list[int]:
        """Device population per shard (balanced; remainder to low ids)."""
        n, k = self.base.n_devices, self.count
        return [n // k + (1 if s < n % k else 0) for s in range(k)]

    def device_offset(self, shard_id: int) -> int:
        """First global device id owned by ``shard_id``."""
        counts = self.shard_counts()
        if not 0 <= shard_id < self.count:
            raise ValueError(
                f"shard_id {shard_id} out of range for {self.count} shards"
            )
        return sum(counts[:shard_id])

    def shard_config(self, shard_id: int) -> PaperConfig:
        """The equivalent standalone single-region config of one shard.

        This is the replay-in-isolation contract: running this config
        through :class:`~repro.core.network.D2DNetwork` and a simulation
        reproduces the shard's dynamics bit for bit, with no reference
        to the rest of the city.
        """
        counts = self.shard_counts()
        if not 0 <= shard_id < self.count:
            raise ValueError(
                f"shard_id {shard_id} out of range for {self.count} shards"
            )
        return self.base.replace(
            n_devices=counts[shard_id],
            area_side_m=self.tile_side_m,
            seed=shard_seed(self.base.seed, shard_id),
        )

    def shard_configs(self) -> list[PaperConfig]:
        return [self.shard_config(s) for s in range(self.count)]

    def channel_key(self) -> int:
        """City-level shadowing key for cross-tile links."""
        return city_channel_key(self.base.seed)
