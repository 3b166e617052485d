"""Scale benchmark: the CSR path's whole point, measured.

Runs the ST pipeline end-to-end at growing device counts under
*constant density* (the area grows with n, so E = O(n)), recording the
network-construction and simulation wall times separately plus the
tracemalloc peak.  Network construction (grid candidates plus
counter-hashed channel draws into the link CSR) dominates end-to-end
time at scale, so it is reported separately from the simulation
(beacon decode, Borůvka MWOE phases, timing replay, trim); see
docs/performance.md for the measured breakdown.  Each size runs under
an activated :class:`~repro.obs.Observability`, and its row carries a
``layers`` dict: span name → total ms from
:func:`~repro.obs.profile.profile_table` (``build.links``,
``build.csr``, ``discovery``, ``merge_schedule``, ...).  One row per
size, plus one merged multi-shard row (``tiles``) for the 2×2 city
twin.

Artifact: ``BENCH_scale.json`` — consumed by
``scripts/check_bench_regression.py`` against the committed baseline in
``benchmarks/baselines/``.  The committed baseline is recorded under
``REPRO_BENCH_FULL=1``; the CI grid is a subset of the full grid, so
every CI row has a baseline counterpart (full-only rows show up as
visible skips).  The artifact also carries a machine-independent budget
entry (the sharding overhead ratio) that the checker enforces with
printed headroom.
"""

from __future__ import annotations

import time
import tracemalloc

from benchmarks.conftest import FULL, save_and_print, write_bench_json
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.st import STSimulation
from repro.obs import Observability, activate
from repro.obs.profile import profile_table
from repro.shard import CityConfig, run_city

#: Device counts.  The CI subset is a strict subset of the full grid so
#: the committed full-grid baseline covers every CI row.
SIZES = (300, 800, 5000, 20000, 50000, 100000) if FULL else (300, 800)
SEED = 1

#: Sharded comparison row: the same scenario executed as a 2×2 city
#: against its single-region twin.
SHARD_TILES = (2, 2)
SHARD_SIZE = 5000 if FULL else 800
#: Ceiling on wall(sharded 2×2) / wall(single-region) at SHARD_SIZE.
#: Sharding pays band extraction, halo exchange and merge on top of the
#: same simulation work; at these small sizes that overhead is
#: proportionally largest, so the limit only guards against outright
#: degeneration (city-scale wins are bench_city's story).
SHARD_RATIO_LIMIT = 2.5


def _run_once(n: int) -> dict:
    config = PaperConfig(seed=SEED).with_devices(n, keep_density=True)
    obs = Observability()
    tracemalloc.start()
    with activate(obs):
        t0 = time.perf_counter()
        network = D2DNetwork(config)
        t1 = time.perf_counter()
        result = STSimulation(network).run()
        t2 = time.perf_counter()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "n": n,
        "wall_s": round(t2 - t0, 4),
        "build_s": round(t1 - t0, 4),
        "sim_s": round(t2 - t1, 4),
        "peak_mb": round(peak / 2**20, 2),
        "messages": result.messages,
        "converged": result.converged,
        "layers": {row.name: round(row.total_ms, 2) for row in profile_table(obs.spans)},
    }


def test_bench_scale_st(results_dir, bench_json_dir):
    rows = []
    by_n = {}
    for n in SIZES:
        row = _run_once(n)
        assert row["converged"], f"ST did not converge at n={n}"
        rows.append(row)
        by_n[n] = row

    # merged multi-shard row: the SHARD_SIZE scenario as a 2×2 city
    config = PaperConfig(seed=SEED).with_devices(SHARD_SIZE, keep_density=True)
    city = CityConfig(config, *SHARD_TILES)
    t0 = time.perf_counter()
    city_res = run_city(city, algorithms=("st",), measure_memory=True)
    city_wall = time.perf_counter() - t0
    assert city_res.converged, "sharded ST did not converge"
    tiles_txt = f"{SHARD_TILES[0]}x{SHARD_TILES[1]}"
    rows.append(
        {
            "n": SHARD_SIZE,
            "tiles": tiles_txt,
            "wall_s": round(city_wall, 4),
            "build_s": None,
            "sim_s": None,
            "peak_mb": city_res.peak_mb,
            "messages": city_res.messages,
            "converged": city_res.converged,
        }
    )
    shard_ratio = round(city_wall / by_n[SHARD_SIZE]["wall_s"], 4)
    budgets = [
        {
            "name": "shard_overhead_ratio",
            "value": shard_ratio,
            "limit": SHARD_RATIO_LIMIT,
        }
    ]

    lines = ["scale: ST end-to-end (constant density), build vs sim split"]
    lines.append(
        f"{'n':>7} {'tiles':>6} {'wall_s':>9} {'build_s':>9} "
        f"{'sim_s':>9} {'peak_mb':>9} {'messages':>10}"
    )

    def _f(value, width=9, digits=3):
        return f"{'-':>{width}}" if value is None else f"{value:>{width}.{digits}f}"

    for r in rows:
        lines.append(
            f"{r['n']:>7} {r.get('tiles', '-'):>6} {_f(r['wall_s'])} "
            f"{_f(r['build_s'])} {_f(r['sim_s'])} "
            f"{_f(r['peak_mb'], digits=2)} {r['messages']:>10}"
        )
    lines.append(
        f"shard overhead 2x2/single at n={SHARD_SIZE}: {shard_ratio:.2f}x"
    )
    save_and_print(results_dir, "scale", "\n".join(lines))

    total_wall = sum(r["wall_s"] for r in rows if "tiles" not in r)
    write_bench_json(
        bench_json_dir,
        "scale",
        total_wall,
        {
            "rows": rows,
            "budgets": budgets,
            "full_grid": FULL,
        },
    )
