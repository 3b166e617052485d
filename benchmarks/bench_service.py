"""Service benchmark: sustained query rate against a live churning world.

Boots a :class:`~repro.service.world.SteadyStateWorld` (greedy-repair
churn session, constant density, never densifying) behind the
transport-free :class:`~repro.service.app.DiscoveryApp`, then measures a
mixed query script — ``/near``, ``/fragment``, ``/sync``, ``/health`` —
interleaved with ``POST /world/step`` churn epochs.  The sustained rate
divides **queries by the whole loop wall including the steps**, so the
headline number is "queries per second while the world churns
underneath", not a cold-cache query microbenchmark.

In-process on purpose: the number is the service's (routing, world
queries, canonical JSON), not the socket stack's —
``scripts/service_load.py`` covers the HTTP layer.

The CI grid runs n = 4096; the full grid (``REPRO_BENCH_FULL=1``) adds
the acceptance row, a **100 000-UE world under continuous churn**, whose ``service_qps_floor_ratio``
budget (floor / measured qps, limit 1.0) hard-fails
``scripts/check_bench_regression.py`` when the sustained rate drops
below 1 000 queries/sec.  The budget always binds the largest row in
the artifact, so the CI grid guards the same floor at its own size.

The artifact also carries an ``ops_overhead_ratio`` budget: every query
of the mixed script runs twice back-to-back against the *same* world —
once with the full ops plane attached (tracing + latency histograms +
SLO analyzers + flight recorder), once detached, order alternating,
garbage collector parked — and the minimum over interleaved rounds of
the on/off wall ratio must stay within 5% (the PR 5 obs-overhead
min-of-interleaved-runs estimator, applied at query-pair granularity
because block-level A/B cannot resolve a few-µs effect on shared
machines; see ``_ops_overhead``).

Artifact: ``BENCH_service.json``; committed baseline recorded under
``REPRO_BENCH_FULL=1`` (CI rows are a subset of the full grid).
"""

from __future__ import annotations

import gc
import time

from benchmarks.conftest import FULL, save_and_print, write_bench_json
from repro.core.config import PaperConfig
from repro.service import (
    DiscoveryApp,
    ServiceClient,
    SteadyStateWorld,
    WorldConfig,
)

SEED = 1
#: World sizes, one row each.
GRID = [4096]
if FULL:
    GRID += [100_000]
#: Churn epochs per row and queries interleaved after each epoch.
EPOCHS = 5
QUERIES_PER_EPOCH = 2000
#: Sustained floor (queries/sec) the largest row must hold under churn.
QPS_FLOOR = 1000.0
#: Interleaved rounds for the ops-plane overhead estimate; the budget
#: takes the minimum round ratio (PR 5 methodology: noise is additive,
#: the minimum over interleaved repetitions converges to the floor).
OPS_ROUNDS = 3
#: Query pairs per round — each query runs twice back-to-back, once per
#: variant, order alternating.  Block-level A/B designs (two worlds, or
#: one world with long alternating blocks) measured ±10% on an idle
#: machine — scheduler/frequency regimes shift at the seconds scale, so
#: only same-query adjacent pairing samples identical noise on both
#: variants.  10k pairs keep per-round jitter well under a point.
OPS_PAIRS_PER_ROUND = 10_000
#: CI-enforced ceiling on min over rounds of (on wall / off wall - 1).
OPS_OVERHEAD_LIMIT = 0.05


def _world(n: int) -> SteadyStateWorld:
    base = PaperConfig(seed=SEED).with_devices(n, keep_density=True)
    return SteadyStateWorld(
        WorldConfig(
            base=base,
            arrival_rate=max(2.0, n / 1000.0),
            departure_rate=max(2.0, n / 1000.0),
            min_population=max(2, n // 8),
        )
    )


def _query_script(client: ServiceClient, n: int, offset: int) -> int:
    """One block of mixed queries; returns the number issued."""
    issued = 0
    for i in range(QUERIES_PER_EPOCH):
        ue = (offset * 7919 + i * 131) % n
        if i % 20 == 19:
            resp = client.get("/sync")
        elif i % 20 == 9:
            resp = client.get(f"/fragment/{ue}?limit=16")
        else:
            resp = client.get(f"/near/{ue}?limit=8")
        assert resp.status in (200, 404), f"unexpected {resp.status} for ue={ue}"
        issued += 1
    return issued


def _run_row(n: int) -> dict:
    t0 = time.perf_counter()
    world = _world(n)
    build_s = time.perf_counter() - t0
    client = ServiceClient(DiscoveryApp(world))

    # one warm epoch outside the measurement (first step pays lazy inits)
    assert client.post("/world/step", {"steps": 1}).status == 200

    queries = 0
    step_s = 0.0
    t0 = time.perf_counter()
    for epoch in range(EPOCHS):
        t_step = time.perf_counter()
        resp = client.post("/world/step", {"steps": 1})
        step_s += time.perf_counter() - t_step
        assert resp.status == 200
        queries += _query_script(client, n, epoch)
    loop_s = time.perf_counter() - t0

    assert world.population > 0 and world.session.is_spanning is not None
    return {
        "n": n,
        "wall_s": round(build_s + loop_s, 4),
        "build_s": round(build_s, 4),
        "loop_s": round(loop_s, 4),
        "step_s": round(step_s / EPOCHS, 4),
        "queries": queries,
        "qps": round(queries / loop_s, 1),
        "population": world.population,
    }


def _ops_overhead() -> dict:
    """Per-request ops-plane overhead, paired at query granularity.

    ONE world serves both variants (two "identical" worlds carry a
    ~10% allocation-order bias, far larger than the few-µs effect under
    measurement).  Every query of the mixed script runs twice
    back-to-back — once with ``app.ops`` detached, once attached, order
    alternating so the cache-warm second run favours neither side — and
    each run's wall adds to its variant's accumulator.  Adjacent
    same-query pairing means scheduler and frequency regimes (which
    shift at the seconds scale and defeat block-level A/B on this
    machine class) land identically on both sums.  The budget value is
    the **minimum round ratio** over ``OPS_ROUNDS`` interleaved rounds
    (the PR 5 estimator: timing noise is additive, so the minimum
    converges to the true floor).  World stepping is excluded — the
    churn path is governed by the qps floor; this budget governs the
    per-request instrumentation.
    """
    from repro.obs import FlightRecorder
    from repro.obs.ops import OpsPlane

    n = GRID[0]
    world = _world(n)
    plane = OpsPlane(flight=FlightRecorder())
    app = DiscoveryApp(world, ops=plane)
    client = ServiceClient(app)
    assert client.post("/world/step", {"steps": 1}).status == 200
    _query_script(client, n, 0)  # warm-up, both variants
    app.ops = None
    _query_script(client, n, 0)

    clock = time.perf_counter
    get = client.get

    def round_walls(salt: int) -> tuple[float, float]:
        off = on = 0.0
        for i in range(OPS_PAIRS_PER_ROUND):
            ue = (salt * 7919 + i * 131) % n
            if i % 20 == 19:
                url = "/sync"
            elif i % 20 == 9:
                url = f"/fragment/{ue}?limit=16"
            else:
                url = f"/near/{ue}?limit=8"
            if i & 1:
                app.ops = plane
                t0 = clock()
                get(url)
                t1 = clock()
                app.ops = None
                t2 = clock()
                get(url)
                t3 = clock()
            else:
                app.ops = None
                t2 = clock()
                get(url)
                t3 = clock()
                app.ops = plane
                t0 = clock()
                get(url)
                t1 = clock()
            on += t1 - t0
            off += t3 - t2
        return off, on

    rounds: list[tuple[float, float]] = []
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for salt in range(OPS_ROUNDS):
            rounds.append(round_walls(salt))
    finally:
        if gc_was_enabled:
            gc.enable()

    # observation-only: the same world must serve identical bytes with
    # the plane detached and attached
    probe = f"/near/{7919 % n}?limit=8"
    app.ops = None
    plain = client.get(probe).body
    app.ops = plane
    assert client.get(probe).body == plain

    best = min(rounds, key=lambda pair: pair[1] / pair[0])
    off_s, on_s = best
    return {
        "n": n,
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "round_ratios": [round(on / off - 1.0, 4) for off, on in rounds],
        "wall_s": round(sum(off + on for off, on in rounds), 4),
        "ratio": round(on_s / off_s - 1.0, 4),
    }


def test_bench_service(results_dir, bench_json_dir):
    rows = [_run_row(n) for n in GRID]
    ops = _ops_overhead()

    largest = max(rows, key=lambda r: r["n"])
    budgets = [
        {
            "name": "service_qps_floor_ratio",
            "value": round(QPS_FLOOR / largest["qps"], 4),
            "limit": 1.0,
        },
        {
            "name": "ops_overhead_ratio",
            "value": ops["ratio"],
            "limit": OPS_OVERHEAD_LIMIT,
        },
    ]

    lines = [
        "service: sustained query rate under continuous churn (in-process)"
    ]
    lines.append(
        f"{'n':>9} {'build_s':>9} {'step_s':>8} "
        f"{'queries':>9} {'qps':>9}"
    )
    for r in rows:
        lines.append(
            f"{r['n']:>9} {r['build_s']:>9.2f} "
            f"{r['step_s']:>8.3f} {r['queries']:>9} {r['qps']:>9.1f}"
        )
    lines.append(
        f"floor: {QPS_FLOOR:.0f} qps at n={largest['n']} -> "
        f"ratio {budgets[0]['value']:.4f} (limit 1.0)"
    )
    lines.append(
        f"ops plane: off {ops['off_s']:.4f}s vs on {ops['on_s']:.4f}s over "
        f"{OPS_PAIRS_PER_ROUND} paired queries at n={ops['n']} -> overhead "
        f"{ops['ratio']:+.4f} (rounds {ops['round_ratios']}, "
        f"limit {OPS_OVERHEAD_LIMIT})"
    )
    save_and_print(results_dir, "service", "\n".join(lines))

    total_wall = sum(r["wall_s"] for r in rows) + ops["wall_s"]
    write_bench_json(
        bench_json_dir,
        "service",
        total_wall,
        {
            "rows": rows,
            "ops_overhead": ops,
            "budgets": budgets,
            "epochs": EPOCHS,
            "queries_per_epoch": QUERIES_PER_EPOCH,
            "full_grid": FULL,
        },
    )
