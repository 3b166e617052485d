"""City-scale benchmark: the sharded tier end-to-end, to one million UEs.

Runs whole-city discovery through :func:`repro.shard.run_city` — tile
grid, per-shard simulations across a process pool, halo exchange, and
the deterministic merge — recording wall-clock and tracemalloc peak per
row.  The CI grid compares one city (2×2 at n = 2048) against its
single-region twin; the full grid (``REPRO_BENCH_FULL=1``) adds cities
up to

* n = 100 000 on a 2×2 grid, and
* n = 1 000 000 on a 4×4 grid — 62 500 devices per shard, the
  acceptance row for the sharded tier.

Density is constant (the paper's 50 devices per 100 m × 100 m), so the
area grows with n and E = O(n); the 4×4 city at one million devices
covers a ~14.1 km square.  All cities run with ``workers=2`` so the
pool pickling/reassembly path is what gets measured, not the inline
fallback.

The CI-size city also writes its **observability bundle** (per-shard
``worker_NNNN.json`` plus ``merged.json``) next to the artifact and
stamps ``metrics.obs_bundle``, so ``scripts/check_bench_regression.py``
re-merges the worker snapshots and byte-compares them against
``merged.json`` on every run.

Artifact: ``BENCH_city.json``; committed baseline recorded under
``REPRO_BENCH_FULL=1`` (CI rows are a subset of the full grid).  The
``shard_overhead_ratio`` budget — wall(2×2 city) / wall(single region)
at the CI size — is machine-independent and guards against the sharding
layer degenerating; city-scale wins over single-region are the full
grid's story.
"""

from __future__ import annotations

import time
import tracemalloc

from benchmarks.conftest import FULL, save_and_print, write_bench_json
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.st import STSimulation
from repro.shard import CityConfig, run_city

SEED = 1
#: Single-region reference rows.
SINGLE_SIZES = (2048,)
#: City rows: (n, (rows, cols)).
CITY_GRID = [(2048, (2, 2))]
if FULL:
    CITY_GRID += [
        (100_000, (2, 2)),
        (1_000_000, (4, 4)),
    ]
#: Process-pool width for every city row.
WORKERS = 2
#: Ceiling on wall(2×2 city) / wall(single region) at the CI size —
#: band extraction, halo exchange and merge ride on top of the same
#: simulation work, so this only guards against outright degeneration.
SHARD_RATIO_LIMIT = 2.5


def _config(n: int) -> PaperConfig:
    return PaperConfig(seed=SEED).with_devices(n, keep_density=True)


def _run_single(n: int) -> dict:
    config = _config(n)
    tracemalloc.start()
    t0 = time.perf_counter()
    result = STSimulation(D2DNetwork(config)).run()
    wall = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "n": n,
        "wall_s": round(wall, 4),
        "peak_mb": round(peak / 2**20, 2),
        "messages": result.messages,
        "converged": result.converged,
    }


def _run_city_row(n: int, tiles: tuple[int, int], obs_dir=None) -> dict:
    city = CityConfig(_config(n), *tiles)
    t0 = time.perf_counter()
    res = run_city(
        city,
        algorithms=("st",),
        workers=WORKERS,
        check_invariants=False,
        measure_memory=True,
        obs_dir=obs_dir,
    )
    wall = time.perf_counter() - t0
    assert res.converged, f"sharded ST did not converge at n={n} {tiles}"
    return {
        "n": n,
        "tiles": f"{tiles[0]}x{tiles[1]}",
        "wall_s": round(wall, 4),
        "peak_mb": res.peak_mb,
        "messages": res.messages,
        "converged": res.converged,
        "shards": city.count,
        "halo_links": res.halo["links"],
        "halo_candidates": res.halo["candidates"],
        "max_shard_wall_s": round(max(res.shard_walls), 4),
    }


def test_bench_city(results_dir, bench_json_dir):
    rows = []
    singles = {}
    for n in SINGLE_SIZES:
        row = _run_single(n)
        assert row["converged"], f"single-region ST did not converge at n={n}"
        rows.append(row)
        singles[n] = row

    bundle_name = "obs_city"
    city_rows = []
    for i, (n, tiles) in enumerate(CITY_GRID):
        obs_dir = bench_json_dir / bundle_name if i == 0 else None
        row = _run_city_row(n, tiles, obs_dir=obs_dir)
        rows.append(row)
        city_rows.append(row)

    ci_n, _ = CITY_GRID[0]
    shard_ratio = round(city_rows[0]["wall_s"] / singles[ci_n]["wall_s"], 4)
    budgets = [
        {
            "name": "shard_overhead_ratio",
            "value": shard_ratio,
            "limit": SHARD_RATIO_LIMIT,
        }
    ]

    lines = ["city: sharded ST end-to-end (constant density), process pool"]
    lines.append(
        f"{'n':>9} {'tiles':>6} {'wall_s':>10} {'peak_mb':>9} "
        f"{'messages':>12} {'halo_links':>10}"
    )
    for r in rows:
        halo = f"{r['halo_links']:>10}" if "halo_links" in r else f"{'-':>10}"
        lines.append(
            f"{r['n']:>9} {r.get('tiles', '-'):>6} {r['wall_s']:>10.3f} "
            f"{r['peak_mb']:>9.2f} {r['messages']:>12} {halo}"
        )
    lines.append(
        f"shard overhead 2x2/single at n={ci_n}: {shard_ratio:.2f}x "
        f"(workers={WORKERS})"
    )
    for r in city_rows:
        lines.append(
            f"city n={r['n']} {r['tiles']}: {r['shards']} shards, "
            f"slowest shard {r['max_shard_wall_s']:.3f}s, "
            f"{r['halo_candidates']} halo candidates -> "
            f"{r['halo_links']} links"
        )
    save_and_print(results_dir, "city", "\n".join(lines))

    total_wall = sum(r["wall_s"] for r in rows)
    write_bench_json(
        bench_json_dir,
        "city",
        total_wall,
        {
            "rows": rows,
            "budgets": budgets,
            "obs_bundle": bundle_name,
            "workers": WORKERS,
            "full_grid": FULL,
        },
    )
