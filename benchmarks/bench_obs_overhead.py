"""Streaming-telemetry overhead budget: enabled vs obs=None, measured.

Runs ST at n=512 end-to-end many times — alternating between a
disabled bundle (kernels receive ``obs=None``, the true
zero-instrumentation path) and full streaming telemetry (metrics +
probes + bus + analyzers) — with the garbage collector parked, so
thermal drift, allocator state and GC pauses hit both variants equally.

The overhead estimate is the **ratio of the per-variant minimum walls**,
``min(on) / min(off) - 1``.  The workload is deterministic (same seed,
same instruction stream every repetition), so timing noise on this
machine class is strictly additive — the minimum over many interleaved
repetitions converges to each variant's true floor, where paired or
averaged estimators at this run length (~0.1 s) still swing by several
percent.  The result is exported as a **budget** row that
``scripts/check_bench_regression.py`` enforces at ``limit`` (5%),
independent of machine speed.

Telemetry must stay observation-only, so the benchmark also asserts
message bills and convergence are identical across variants.

Artifact: ``BENCH_obs_overhead.json`` — compared against the committed
baseline in ``benchmarks/baselines/`` by the CI obs-overhead job.
"""

from __future__ import annotations

import gc
import time

from benchmarks.conftest import FULL, save_and_print, write_bench_json
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.st import STSimulation
from repro.obs import Observability

N = 512
SEED = 1
REPEATS = 32 if FULL else 24
#: CI-enforced ceiling on (enabled - disabled) / disabled wall clock.
OVERHEAD_LIMIT = 0.05


def _run_once(stream: bool) -> tuple[float, object]:
    """One end-to-end ST run; returns (sim wall seconds, result).

    The network is rebuilt each repetition (its RNG streams are consumed
    by a run) but only the simulation is timed — topology construction
    is identical across variants and not what the budget governs.
    """
    config = PaperConfig(seed=SEED).with_devices(N, keep_density=True)
    network = D2DNetwork(config)
    obs = (
        Observability(stream=True)
        if stream
        else Observability(enabled=False)
    )
    sim = STSimulation(network, obs=obs)
    t0 = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - t0, result


def test_bench_obs_overhead(results_dir, bench_json_dir):
    # warm-up: first-run effects (import caches, allocator growth) hit
    # neither timed variant
    _run_once(stream=False)
    _run_once(stream=True)

    off_walls: list[float] = []
    on_walls: list[float] = []
    off_result = on_result = None
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            wall, off_result = _run_once(stream=False)
            off_walls.append(wall)
            wall, on_result = _run_once(stream=True)
            on_walls.append(wall)
    finally:
        if gc_was_enabled:
            gc.enable()

    # observation-only: the telemetry layer must not change the run
    assert off_result.converged and on_result.converged
    assert off_result.messages == on_result.messages, (
        "enabling telemetry changed the message bill"
    )
    assert off_result.message_breakdown == on_result.message_breakdown

    off_s = min(off_walls)
    on_s = min(on_walls)
    overhead = on_s / off_s - 1.0
    rows = [
        {
            "n": N,
            "obs": "off",
            "wall_s": round(off_s, 4),
            "messages": off_result.messages,
            "converged": off_result.converged,
        },
        {
            "n": N,
            "obs": "on",
            "wall_s": round(on_s, 4),
            "messages": on_result.messages,
            "converged": on_result.converged,
        },
    ]
    budgets = [
        {
            "name": "obs_overhead_fraction",
            "value": round(overhead, 4),
            "limit": OVERHEAD_LIMIT,
        }
    ]

    lines = [
        f"obs overhead: ST n={N}, best of {REPEATS} interleaved reps",
        f"  obs=None   {off_s:9.3f} s/run (floor)",
        f"  streaming  {on_s:9.3f} s/run (floor)",
        f"  overhead   {overhead:+9.2%} ratio of floors"
        f" (budget {OVERHEAD_LIMIT:.0%})",
    ]
    save_and_print(results_dir, "obs_overhead", "\n".join(lines))

    write_bench_json(
        bench_json_dir,
        "obs_overhead",
        off_s + on_s,
        {"rows": rows, "budgets": budgets, "repeats": REPEATS},
    )
