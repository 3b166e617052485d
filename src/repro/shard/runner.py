"""Sharded city execution: process pool, halo merge, canonical result.

:func:`run_city` executes every shard of a :class:`~repro.shard.tiling.
CityConfig` — each an independent single-region simulation — then
runs the halo exchange
(:mod:`repro.shard.halo`) for the cross-tile links, and merges the
per-shard message bills, observability snapshots and results into one
:class:`CityResult`.

Determinism is the sweep runner's reassembly pattern
(:mod:`repro.analysis.sweep`): jobs stream through a
``multiprocessing.Pool`` via ``imap_unordered`` and land back in their
deterministic slots by job index, so ``run_city(workers=k)`` produces a
canonical document byte-identical to ``run_city(workers=1)`` for every
``k`` — scheduling can change wall time, never content.  Each shard runs
under its own :class:`~repro.obs.Observability` bundle whose snapshot
(:func:`~repro.obs.aggregate.worker_snapshot`, keyed by shard id) merges
into one fleet registry via
:func:`~repro.obs.aggregate.merge_snapshots`.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.conformance.canonical import (
    canonical_json,
    combine_hashes,
    content_hash,
    hash_array,
)
from repro.shard.halo import (
    border_band,
    cross_links,
    cross_radius_m,
    halo_reach,
    links_digest,
)
from repro.shard.tiling import CityConfig

SCHEMA = "repro.shard/1"

#: Fast-path algorithms ``run_city`` can drive (the conformance layer
#: additionally captures ``pulsesync`` via :func:`repro.shard.conformance.
#: capture_city`).
RUN_ALGORITHMS = ("st", "fst")

#: Above this city population the halo link arrays stay in the workers
#: (counts and digests still merge); below it they ship back for tests
#: and queries.
RETURN_LINKS_MAX_DEVICES = 200_000


# ----------------------------------------------------------------------
# per-shard job (top-level: must pickle)
# ----------------------------------------------------------------------
def _shard_payload(
    city: CityConfig,
    shard_id: int,
    algorithms: tuple[str, ...],
    capture: bool,
    collect_obs: bool,
    check_invariants: bool,
    measure_memory: bool,
    trace=None,
) -> dict[str, Any]:
    from repro.core.fst import FSTSimulation
    from repro.core.network import D2DNetwork
    from repro.core.st import STSimulation
    from repro.faults.invariants import InvariantChecker

    cfg = city.shard_config(shard_id)
    if measure_memory:
        tracemalloc.start()
    t0 = time.perf_counter()
    # ops-plane span documents built out-of-process: the worker has no
    # plane, so it hand-writes OpsSpan dicts under the driver's context
    # with shard-prefixed ids (collision-free across the pool) and the
    # driver adopts them via OpsPlane.ingest.
    ops_spans: list[dict[str, Any]] = []
    _shard_span_root = f"sh{shard_id}.0"

    def _note_span(name: str, start_s: float, **attrs: Any) -> None:
        if trace is None:
            return
        ops_spans.append(
            {
                "trace_id": trace.trace_id,
                "span_id": f"sh{shard_id}.{len(ops_spans) + 1}",
                "parent_id": _shard_span_root,
                "name": name,
                "start_s": start_s,
                "duration_ms": (time.perf_counter() - start_s) * 1000.0,
                "status": "ok",
                "attrs": attrs,
            }
        )

    obs = None
    if collect_obs:
        from repro.obs import Observability

        obs = Observability()
    net = D2DNetwork(cfg)
    runs: dict[str, Any] = {}
    sim_time_ms = 0.0
    for algorithm in algorithms:
        alg_t0 = time.perf_counter()
        if capture:
            from repro.conformance.golden import capture_run

            doc = capture_run(cfg, algorithm).doc()
            runs[algorithm] = doc
            res = doc["result"]
            sim_time_ms += float(res["time_ms"])
            _note_span(f"capture.{algorithm}", alg_t0, shard=shard_id)
            continue
        if algorithm not in RUN_ALGORITHMS:
            raise ValueError(
                f"run_city drives {RUN_ALGORITHMS}, got {algorithm!r} "
                "(use repro.shard.conformance.capture_city for pulsesync)"
            )
        phase_rounds: list[str] = []

        def phase_hook(_instant, _t, phases, _rounds=phase_rounds) -> None:
            _rounds.append(hash_array(phases))

        sim_cls = STSimulation if algorithm == "st" else FSTSimulation
        run = sim_cls(
            net,
            obs=obs,
            invariants=InvariantChecker() if check_invariants else None,
            phase_hook=phase_hook,
        ).run()
        sim_time_ms += run.time_ms
        runs[algorithm] = {
            "result": {
                "converged": run.converged,
                "time_ms": run.time_ms,
                "messages": run.messages,
                "tree_edges": [list(e) for e in run.tree_edges],
                "extra": dict(run.extra),
            },
            "bill": dict(run.message_breakdown),
            "phase_rounds": phase_rounds,
            "phase_stream_hash": combine_hashes(phase_rounds),
        }
        _note_span(f"run.{algorithm}", alg_t0, shard=shard_id)

    # border band in city coordinates, global ids
    ox, oy = city.tiling.origin(shard_id)
    positions_city = net.positions + np.array([ox, oy])
    radius = cross_radius_m(city.base)
    mask = border_band(positions_city, city.tiling, shard_id, radius)
    offset = city.device_offset(shard_id)
    band = {
        "ids": np.flatnonzero(mask).astype(np.int64) + offset,
        "positions": positions_city[mask],
    }

    wall_s = time.perf_counter() - t0
    peak_mb = None
    if measure_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_mb = round(peak / 2**20, 2)

    snapshot = None
    if obs is not None:
        from repro.obs.aggregate import worker_snapshot

        obs.metrics.counter(
            "shard_runs_total", help="shard simulations completed", unit="runs"
        ).inc(len(algorithms))
        obs.metrics.counter(
            "shard_sim_time_ms_total",
            help="simulated milliseconds covered by shard runs",
            unit="ms",
        ).inc(sim_time_ms)
        obs.metrics.counter(
            "shard_wall_seconds_total",
            help="wall-clock seconds spent executing shard runs",
            unit="s",
        ).inc(wall_s)
        snapshot = worker_snapshot(obs, worker_id=shard_id)

    if trace is not None:
        ops_spans.append(
            {
                "trace_id": trace.trace_id,
                "span_id": _shard_span_root,
                "parent_id": trace.span_id,
                "name": f"shard[{shard_id}]",
                "start_s": t0,
                "duration_ms": wall_s * 1000.0,
                "status": "ok",
                "attrs": {"shard": shard_id, "n": cfg.n_devices},
            }
        )

    return {
        "shard_id": shard_id,
        "n": cfg.n_devices,
        "seed": cfg.seed,
        "origin": [ox, oy],
        "runs": runs,
        "band": band,
        "wall_s": wall_s,
        "peak_mb": peak_mb,
        "snapshot": snapshot,
        "ops_spans": ops_spans,
    }


def _shard_job(args) -> tuple[int, dict[str, Any]]:
    (city, shard_id, algorithms, capture, collect_obs, inv, mem, trace) = args
    return shard_id, _shard_payload(
        city, shard_id, algorithms, capture, collect_obs, inv, mem, trace
    )


def _halo_payload(
    city: CityConfig,
    shard_id: int,
    ids: np.ndarray,
    positions: np.ndarray,
    return_links: bool,
) -> dict[str, Any]:
    radius = cross_radius_m(city.base)
    tiles = city.tiling.tile_of(positions)
    candidates, gi, gj, power = cross_links(
        city, positions, ids, tiles, radius, owner=shard_id
    )
    out: dict[str, Any] = {
        "shard_id": shard_id,
        "candidates": candidates,
        "links": int(gi.size),
        "digest": links_digest(gi, gj, power),
    }
    if return_links:
        out["link_arrays"] = (gi, gj, power)
    return out


def _halo_job(args) -> tuple[int, dict[str, Any]]:
    city, shard_id, ids, positions, return_links = args
    return shard_id, _halo_payload(city, shard_id, ids, positions, return_links)


def _pool_map(
    fn: Callable[[Any], tuple[int, dict]], jobs: list, workers: int
) -> list[dict]:
    """Indexed imap_unordered with deterministic reassembly by slot."""
    slots: list[dict | None] = [None] * len(jobs)
    if workers > 1 and len(jobs) > 1:
        chunksize = max(1, len(jobs) // (4 * workers))
        with multiprocessing.Pool(min(workers, len(jobs))) as pool:
            for idx, payload in pool.imap_unordered(fn, jobs, chunksize=chunksize):
                slots[idx] = payload
    else:
        for job in jobs:
            idx, payload = fn(job)
            slots[idx] = payload
    assert all(s is not None for s in slots)
    return slots  # type: ignore[return-value]


# ----------------------------------------------------------------------
# result
# ----------------------------------------------------------------------
@dataclass
class CityResult:
    """Merged outcome of a sharded run (see module docstring).

    :meth:`doc` / :meth:`canonical` cover only protocol-determined
    content — results, bills, phase digests, halo digests — never wall
    clock or memory, so two runs of the same city are byte-comparable
    regardless of worker count or machine.
    """

    city: CityConfig
    algorithms: tuple[str, ...]
    shards: list[dict[str, Any]]
    halo: dict[str, Any]
    bill: dict[str, dict[str, int]]
    messages: int
    converged: bool
    time_ms: float
    wall_s: float = field(default=0.0)
    peak_mb: float | None = field(default=None)
    shard_walls: list[float] = field(default_factory=list, repr=False)
    shard_peaks: list[float | None] = field(default_factory=list, repr=False)
    worker_snapshots: list[dict[str, Any]] = field(
        default_factory=list, repr=False
    )
    merged_obs: dict[str, Any] | None = field(default=None, repr=False)
    halo_links: dict[int, tuple] = field(default_factory=dict, repr=False)

    def doc(self) -> dict[str, Any]:
        base = self.city.base
        return {
            "schema": SCHEMA,
            "city": {
                "n_devices": base.n_devices,
                "area_side_m": base.area_side_m,
                "seed": base.seed,
                "tiles": [self.city.rows, self.city.cols],
                "faults": base.faults.to_spec() if base.faults else None,
            },
            "algorithms": list(self.algorithms),
            "shards": self.shards,
            "halo": self.halo,
            "bill": self.bill,
            "messages": self.messages,
            "converged": self.converged,
            "time_ms": self.time_ms,
        }

    def canonical(self) -> str:
        return canonical_json(self.doc())

    @property
    def content_hash(self) -> str:
        return content_hash(self.doc())

    def merged_registry(self):
        if self.merged_obs is None:
            raise ValueError("run_city ran without collect_obs=True")
        from repro.obs.aggregate import to_registry

        return to_registry(self.merged_obs)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def run_city(
    city: CityConfig,
    *,
    algorithms: tuple[str, ...] = ("st",),
    workers: int = 1,
    collect_obs: bool = False,
    check_invariants: bool = True,
    measure_memory: bool = False,
    capture: bool = False,
    return_links: bool | None = None,
    obs_dir: str | pathlib.Path | None = None,
    ops=None,
    trace=None,
) -> CityResult:
    """Run every shard plus the halo exchange; merge deterministically.

    Parameters
    ----------
    algorithms:
        Subset of ``("st", "fst")`` to run per shard (``capture=True``
        additionally accepts ``"pulsesync"``).
    workers:
        Process count; content is worker-count-invariant by
        construction.
    collect_obs:
        Give each shard a private observability bundle and merge the
        per-shard snapshots (``worker_snapshots`` / ``merged_obs`` on
        the result).
    check_invariants:
        Run every simulation under an
        :class:`~repro.faults.invariants.InvariantChecker`.
    measure_memory:
        Track tracemalloc peaks per shard and in the driver
        (``peak_mb`` = max across both).
    capture:
        Per-shard runs go through
        :func:`~repro.conformance.golden.capture_run` and the shard
        ``runs`` sections hold full golden docs (events, merges, ...).
    return_links:
        Ship the halo link arrays back from the workers (default: only
        for cities up to :data:`RETURN_LINKS_MAX_DEVICES` devices).
    obs_dir:
        Write per-shard snapshots as ``worker_<shard>.json`` plus the
        merge as ``merged.json`` (the sweep runner's bundle layout;
        implies ``collect_obs``).
    ops / trace:
        Optional :class:`~repro.obs.ops.OpsPlane` (default: the
        process-default plane) and parent
        :class:`~repro.obs.ops.TraceContext`.  With a plane attached
        the run records a ``shard.run_city`` span and each pool worker
        ships per-shard span documents back for ingestion — the
        canonical :class:`CityResult` document never includes any of it
        (``shards_doc`` copies explicit keys only).
    """
    collect_obs = collect_obs or obs_dir is not None
    if return_links is None:
        return_links = city.base.n_devices <= RETURN_LINKS_MAX_DEVICES
    if ops is None:
        from repro.obs.ops import default_plane

        ops = default_plane()
    ctx = ops.context(trace) if ops is not None else None
    t0 = time.perf_counter()
    if measure_memory:
        tracemalloc.start()

    jobs = [
        (city, s, tuple(algorithms), capture, collect_obs, check_invariants,
         measure_memory, ctx)
        for s in range(city.count)
    ]
    payloads = _pool_map(_shard_job, jobs, workers)

    # halo: shard s owns its pairs with higher-id tiles, so its job sees
    # its own band plus the bands of higher-id neighbours within reach
    radius = cross_radius_m(city.base)
    reach = halo_reach(city.tiling, radius)
    bands = [p["band"] for p in payloads]
    halo_jobs = []
    for s in range(city.count):
        partners = [s] + [
            t for t in city.tiling.neighbors(s, reach=reach) if t > s
        ]
        ids = np.concatenate([bands[t]["ids"] for t in partners])
        pos = np.concatenate([bands[t]["positions"] for t in partners])
        halo_jobs.append((city, s, ids, pos, return_links))
    halo_payloads = _pool_map(_halo_job, halo_jobs, workers)

    # ------------------------------------------------------------------
    # deterministic merge
    shards_doc = []
    bill: dict[str, dict[str, int]] = {a: {} for a in algorithms}
    messages = 0
    converged = True
    time_ms = 0.0
    for p in payloads:
        shards_doc.append(
            {
                "shard_id": p["shard_id"],
                "n": p["n"],
                "seed": p["seed"],
                "origin": p["origin"],
                "runs": p["runs"],
            }
        )
        for algorithm, run_doc in p["runs"].items():
            res = run_doc["result"]
            messages += int(res["messages"])
            converged &= bool(res["converged"])
            time_ms = max(time_ms, float(res["time_ms"]))
            for kind, count in run_doc["bill"].items():
                bill[algorithm][kind] = bill[algorithm].get(kind, 0) + count
    bill = {a: dict(sorted(kinds.items())) for a, kinds in bill.items()}

    halo_per_shard = [
        {k: h[k] for k in ("shard_id", "candidates", "links", "digest")}
        for h in halo_payloads
    ]
    halo_links = {
        h["shard_id"]: h["link_arrays"]
        for h in halo_payloads
        if "link_arrays" in h
    }
    total_links = sum(h["links"] for h in halo_per_shard)
    halo_messages = 2 * total_links  # both endpoints announce the link
    halo = {
        "radius_m": radius,
        "reach": reach,
        "candidates": sum(h["candidates"] for h in halo_per_shard),
        "links": total_links,
        "messages": halo_messages,
        "digest": combine_hashes([h["digest"] for h in halo_per_shard]),
        "per_shard": halo_per_shard,
    }
    messages += halo_messages

    snapshots = [p["snapshot"] for p in payloads if p["snapshot"] is not None]
    merged_obs = None
    if collect_obs:
        from repro.obs.aggregate import merge_snapshots, write_snapshot

        merged_obs = merge_snapshots(snapshots)
        if obs_dir is not None:
            directory = pathlib.Path(obs_dir)
            for snap in snapshots:
                (worker_id,) = snap["workers"]
                write_snapshot(snap, directory / f"worker_{worker_id:04d}.json")
            write_snapshot(merged_obs, directory / "merged.json")

    peak_mb = None
    if measure_memory:
        _, driver_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks = [p["peak_mb"] for p in payloads if p["peak_mb"] is not None]
        peak_mb = round(max([driver_peak / 2**20] + peaks), 2)

    if ops is not None:
        from repro.obs.ops import OpsSpan

        for p in payloads:
            ops.ingest(p.get("ops_spans") or [])
        ops.record_span(
            OpsSpan(
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
                parent_id=ctx.parent_id,
                name="shard.run_city",
                start_s=t0,
                duration_ms=(time.perf_counter() - t0) * 1000.0,
                attrs={"tiles": city.count, "workers": workers},
            )
        )

    return CityResult(
        city=city,
        algorithms=tuple(algorithms),
        shards=shards_doc,
        halo=halo,
        bill=bill,
        messages=messages,
        converged=converged,
        time_ms=time_ms,
        wall_s=time.perf_counter() - t0,
        peak_mb=peak_mb,
        shard_walls=[p["wall_s"] for p in payloads],
        shard_peaks=[p["peak_mb"] for p in payloads],
        worker_snapshots=snapshots,
        merged_obs=merged_obs,
        halo_links=halo_links,
    )
