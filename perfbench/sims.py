"""The ``sim`` workload: paper sweep points, a scale run and a sharded city.

A *pass* runs these operations in order, each one a thing a user waits
for:

* sweep points — build a fixed-area (100 m × 100 m, Table I) network of
  each size in :data:`SWEEP_SIZES` and run ST then FST on it;
* a scale run — build a constant-density network of
  :data:`SCALE_DEVICES` devices and run ST on it;
* a city — one :func:`repro.shard.run_city` over a :data:`CITY_TILES`
  grid of :data:`CITY_DEVICES` devices (ST per shard, halo exchange,
  merge), in-process.

The run measures whole passes only, so every run has the same mix.
Every operation draws a fresh topology seed from the run's ``--seed``.
Outputs are checked independently of the program: each run converged,
message bills add up, every tree spans its network, and ST trees equal a
maximum spanning tree computed here (Kruskal over ``network.graph()``).
"""

from __future__ import annotations

import random
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

SWEEP_SIZES = (50, 100, 200, 400, 600)
#: ST trees of sweep points up to this size are checked against Kruskal.
SWEEP_ORACLE_MAX_N = 200
SCALE_DEVICES = 4096
CITY_DEVICES = 4096
CITY_TILES = (2, 2)
#: One pass, in order: (operation kind, devices).
PASS = (
    [("sweep", n) for n in SWEEP_SIZES]
    + [("scale", SCALE_DEVICES), ("city", CITY_DEVICES)]
)

#: program span paths folded into per-layer metrics (trace runs only)
PROGRAM_SPANS = {
    ("st_run", "discovery"): "st_discovery_ms",
    ("st_run", "construction"): "st_construction_ms",
    ("st_run", "trim"): "st_trim_ms",
    ("fst_run", "mesh_sync"): "fst_mesh_sync_ms",
    ("fst_run", "discovery"): "fst_discovery_ms",
    ("fst_run", "stitch"): "fst_stitch_ms",
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


class Layers:
    """Wall time per layer, accumulated around calls into each layer."""

    def __init__(self) -> None:
        self.ms: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ms[name] += (time.perf_counter() - t0) * 1000.0


class ProgramSpans:
    """The program's own ST/FST spans, collected in trace runs only."""

    def __init__(self, enabled: bool) -> None:
        self.ms: dict[str, float] = defaultdict(float)
        self.obs = None
        if enabled:
            from repro.obs import Observability

            self.obs = Observability()

    @contextmanager
    def collect(self):
        if self.obs is None:
            yield
            return
        from repro.obs import activate

        self.obs.spans.clear()
        with activate(self.obs):
            yield
        self._fold(self.obs.spans.to_dicts(), ())

    def _fold(self, spans: list[dict], path: tuple[str, ...]) -> None:
        for span in spans:
            here = path + (str(span.get("name")),)
            key = PROGRAM_SPANS.get(here)
            if key is not None:
                self.ms[key] += float(span.get("duration_ms", 0.0))
            if len(here) < 2:
                self._fold(span.get("children", []), here)


# ----------------------------------------------------------------------
# independent checks
# ----------------------------------------------------------------------
def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def check_spanning(edges, n: int, what: str) -> None:
    """``edges`` must be a spanning tree of nodes ``0..n-1``."""
    if len(edges) != n - 1:
        raise CheckFailed(f"{what}: {len(edges)} tree edges for n={n}")
    parent = list(range(n))
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise CheckFailed(f"{what}: edge ({u}, {v}) out of range")
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            raise CheckFailed(f"{what}: cycle through edge ({u}, {v})")
        parent[ru] = rv


def max_spanning_tree(network) -> set[tuple[int, int]]:
    """Kruskal's maximum spanning tree over the proximity graph."""
    graph = network.graph()
    edges = sorted(
        ((float(w), min(u, v), max(u, v)) for u, v, w in graph.edges(data="weight")),
        reverse=True,
    )
    parent = list(range(network.n))
    tree = set()
    for _, u, v in edges:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            tree.add((u, v))
    return tree


def check_run(run, n: int, what: str) -> None:
    if not run.converged:
        raise CheckFailed(f"{what}: did not converge")
    if run.n_devices != n:
        raise CheckFailed(f"{what}: ran on {run.n_devices} devices, not {n}")
    if run.messages != sum(run.message_breakdown.values()):
        raise CheckFailed(f"{what}: message total disagrees with its bill")
    check_spanning(run.tree_edges, n, what)


def check_st_optimal(run, network, what: str) -> None:
    got = {(min(u, v), max(u, v)) for u, v in run.tree_edges}
    if got != max_spanning_tree(network):
        raise CheckFailed(f"{what}: ST tree is not the maximum spanning tree")


def check_city(res, n: int, what: str) -> None:
    if not res.converged:
        raise CheckFailed(f"{what}: did not converge")
    sizes = 0
    billed = 0
    for shard in res.shards:
        run = shard["runs"]["st"]["result"]
        if not run["converged"]:
            raise CheckFailed(f"{what}: shard {shard['shard_id']} did not converge")
        check_spanning(run["tree_edges"], shard["n"], f"{what} shard {shard['shard_id']}")
        sizes += shard["n"]
    for kinds in res.bill.values():
        billed += sum(kinds.values())
    if sizes != n:
        raise CheckFailed(f"{what}: shards hold {sizes} devices, not {n}")
    if res.messages != billed + res.halo["messages"]:
        raise CheckFailed(f"{what}: message total disagrees with its bills")
    if res.halo["links"] <= 0 or res.halo["links"] > res.halo["candidates"]:
        raise CheckFailed(f"{what}: implausible halo {res.halo['links']} links")


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
def sweep_point(n: int, seed: int, layers: Layers):
    from repro.core.config import PaperConfig
    from repro.core.fst import FSTSimulation
    from repro.core.network import D2DNetwork
    from repro.core.st import STSimulation

    config = PaperConfig(n_devices=n, seed=seed)
    with layers.span("sweep_build_ms"):
        network = D2DNetwork(config)
    with layers.span("sweep_st_ms"):
        st = STSimulation(network).run()
    with layers.span("sweep_fst_ms"):
        fst = FSTSimulation(network).run()
    return network, st, fst


def scale_run(n: int, seed: int, layers: Layers):
    from repro.core.config import PaperConfig
    from repro.core.network import D2DNetwork
    from repro.core.st import STSimulation

    config = PaperConfig(seed=seed).with_devices(n, keep_density=True)
    with layers.span("scale_build_ms"):
        network = D2DNetwork(config)
    with layers.span("scale_st_ms"):
        st = STSimulation(network).run()
    return network, st


def city_run(n: int, seed: int, layers: Layers):
    from repro.core.config import PaperConfig
    from repro.shard import CityConfig, run_city

    config = PaperConfig(seed=seed).with_devices(n, keep_density=True)
    t0 = time.perf_counter()
    res = run_city(
        CityConfig(config, *CITY_TILES),
        algorithms=("st",),
        workers=1,
        check_invariants=False,
    )
    wall_ms = (time.perf_counter() - t0) * 1000.0
    shard_ms = sum(res.shard_walls) * 1000.0
    layers.ms["city_shard_ms"] += shard_ms
    layers.ms["city_halo_ms"] += wall_ms - shard_ms
    return res


def warm_up(seed: int) -> None:
    """The smallest operation: pays imports and lazy set-up."""
    sweep_point(SWEEP_SIZES[0], seed, Layers())


# ----------------------------------------------------------------------
# the measured loop
# ----------------------------------------------------------------------
def check_op(kind: str, n: int, seed: int, out, first_of_kind: bool) -> None:
    what = f"{kind} n={n} seed={seed}"
    if kind == "sweep":
        network, st, fst = out
        check_run(st, n, f"{what} st")
        check_run(fst, n, f"{what} fst")
        if n <= SWEEP_ORACLE_MAX_N:
            check_st_optimal(st, network, what)
    elif kind == "scale":
        network, st = out
        check_run(st, n, what)
        if first_of_kind:
            check_st_optimal(st, network, what)
    else:
        check_city(out, n, what)


def run_sims(seed: int, seconds: float, trace: bool) -> dict:
    """Whole passes until ``seconds`` have passed; every output checked."""
    rng = random.Random(seed)
    warm_up(rng.randrange(1, 2**31))
    layers = Layers()
    spans = ProgramSpans(trace)
    latencies: list[float] = []
    by_kind: dict[tuple[str, int], list[float]] = defaultdict(list)
    errors: list[str] = []
    messages = halo_links = halo_candidates = passes = 0
    first = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for kind, n in PASS:
            op_seed = rng.randrange(1, 2**31)
            with spans.collect():
                t0 = time.perf_counter()
                if kind == "sweep":
                    out = sweep_point(n, op_seed, layers)
                elif kind == "scale":
                    out = scale_run(n, op_seed, layers)
                else:
                    out = city_run(n, op_seed, layers)
                latencies.append(time.perf_counter() - t0)
                by_kind[kind, n].append(latencies[-1])
            try:
                check_op(kind, n, op_seed, out, passes == 0)
            except CheckFailed as exc:
                errors.append(str(exc))
            if kind == "city":
                messages += out.messages
                halo_links += out.halo["links"]
                halo_candidates += out.halo["candidates"]
            else:
                messages += sum(run.messages for run in out[1:])
            if first is None and kind == "sweep":
                first = (n, op_seed, [(r.messages, r.tree_edges) for r in out[1:]])
        passes += 1

    # same inputs, same outputs: replay the first sweep point
    n, op_seed, summary = first
    _, *runs = sweep_point(n, op_seed, Layers())
    if [(r.messages, r.tree_edges) for r in runs] != summary:
        errors.append(f"sweep n={n} seed={op_seed}: replay differs")

    for message in errors[:10]:
        print(f"check failed: {message}", flush=True)
    per_pass = {}
    if trace:
        per_pass = {name: ms / passes for name, ms in layers.ms.items()}
        per_pass.update({name: ms / passes for name, ms in spans.ms.items()})
        per_pass["messages"] = messages / passes
        per_pass["halo_yield"] = halo_links / halo_candidates
        per_pass["passes"] = passes
    return {
        # a typical pass: the median time of each of its operations, summed
        "latency_s": sum(statistics.median(times) for times in by_kind.values()),
        # the largest single-region operation, one kind so the metric
        # cannot move between kinds
        "tail_s": statistics.median(by_kind["scale", SCALE_DEVICES]),
        "latencies_s": latencies,
        "busy_s": sum(latencies),
        "attempted": len(latencies),
        "failed": len(errors),
        "correct": not errors,
        "layers": per_pass,
    }
