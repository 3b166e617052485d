#!/usr/bin/env python3
"""Repository benchmark: two workloads, timed end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/README.md`` for why each one exists):

* ``sim``     — passes of paper sweep points (ST and FST at fixed area),
  a constant-density scale run and a sharded 2×2 city;
* ``service`` — the churning discovery service over HTTP.

The seed makes every input (topologies, query scripts); the same seed
gives the same inputs.  Each run measures for ``--seconds`` seconds,
checks the program's outputs, and prints one JSON object as the last
line of standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Any error exits non-zero without
printing a result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import HERE, ROOT, SETUP_REPEATS, SRC, child_env

END_TO_END_UNITS = {
    "latency_ms": "ms",
    "tail_ms": "ms",
    "throughput": "1/s",
    "setup_s": "s",
}

#: Per-layer metrics; every workload reports all of them, 0 for a layer
#: it does not run.  ``sim`` layers are per pass, ``service`` layers per
#: request or per churn step (see README.md).
PER_LAYER_UNITS = {
    "sweep_build_ms": "ms",
    "sweep_st_ms": "ms",
    "sweep_fst_ms": "ms",
    "scale_build_ms": "ms",
    "scale_st_ms": "ms",
    "city_shard_ms": "ms",
    "city_halo_ms": "ms",
    "st_discovery_ms": "ms",
    "st_construction_ms": "ms",
    "st_trim_ms": "ms",
    "fst_mesh_sync_ms": "ms",
    "fst_discovery_ms": "ms",
    "fst_stitch_ms": "ms",
    "halo_yield": "ratio",
    "messages": "count",
    "passes": "count",
    "service_build_ms": "ms",
    "server_query_ms": "ms",
    "server_step_ms": "ms",
    "wire_ms": "ms",
    "churn_messages": "count",
    "requests": "count",
}


def probe_setup(workload: str, seed: int) -> list[float]:
    """Cold start of a batch workload, timed in fresh interpreters.

    Each probe imports the package and runs the workload's warm-up
    operation, so work moved into import or first-call set-up shows.
    """
    samples = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed + i), "--seconds", "1", "--probe"],
            cwd=ROOT,
            env=child_env(),
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        samples.append(time.perf_counter() - t0)
    return samples


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("sim", "service")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe", action="store_true",
        help="import and run the warm-up operation only (set-up timing)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    trace = bool(args.trace)
    if args.workload == "service":
        if args.probe:
            parser.error("the service's set-up is timed by its own cold starts")
        import http_load

        out = http_load.run_service(args.seed, args.seconds, trace)
        setup = out["setup_s"]
    else:
        import sims

        if args.probe:
            sims.warm_up(args.seed)
            return 0
        setup = [] if trace else probe_setup(args.workload, args.seed)
        out = sims.run_sims(args.seed, args.seconds, trace)

    latencies = out["latencies_s"]
    if len(latencies) < 2:
        raise RuntimeError(f"only {len(latencies)} operations completed")
    if trace:
        layers = {name: 0.0 for name in PER_LAYER_UNITS}
        unknown = set(out["layers"]) - set(layers)
        if unknown:
            raise RuntimeError(f"unlisted layer metrics {sorted(unknown)}")
        layers.update(out["layers"])
        metrics = {k: _metric(v, PER_LAYER_UNITS[k]) for k, v in layers.items()}
    else:
        values = {
            "latency_ms": out["latency_s"] * 1000.0,
            "tail_ms": out["tail_s"] * 1000.0,
            "throughput": len(latencies) / out["busy_s"],
            "setup_s": statistics.median(setup),
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    print(
        json.dumps(
            {
                "correct": bool(out["correct"]),
                "attempted": int(out["attempted"]),
                "failed": int(out["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
