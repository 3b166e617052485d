"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment <id>``
    Run one of the paper's evaluation artifacts (``fig2``, ``fig3``,
    ``fig4``, ``table1``, ``complexity``) and print its rendered output.
``simulate``
    Run ST and/or FST on one scenario and print the result summary.
    ``--trace out.jsonl`` / ``--metrics out.json`` additionally write the
    machine-readable run artifacts (JSONL event trace with per-device
    Lamport clocks, metrics snapshot + analyzer alerts); ``--live``
    streams one-line progress updates from the telemetry bus.
``profile <id>``
    Run an experiment under the observability layer and print its nested
    wall-clock span tree, the per-span self-time/call-count profile
    table and the headline counters; ``--json`` exports the span tree
    machine-readably and ``--folded`` writes folded stacks for
    ``flamegraph.pl`` / speedscope.
``trend``
    Render per-benchmark wall-time and budget-headroom trends (inline
    SVG sparklines) from the committed baselines, the bench-history
    JSONL and the freshest ``results/`` artifacts; ``--record`` appends
    the current artifacts to the history first.
``conformance``
    Golden-trace conformance gate: ``record`` (re)writes the corpus
    under ``tests/goldens/``, ``run`` replays every committed golden
    plus the metamorphic relation registry, ``diff`` executes one
    differential pair (clean/noop faults, Borůvka/oracle, sorted/naive
    FFA, sharded/single-region, service replay).  Any divergence prints
    a first-diverging-round report and exits 1.
    ``run --ops`` replays the corpus under a live ops plane — the bytes
    must still match the committed goldens.
``serve``
    Run the discovery service over a live churning world; the ops plane
    (latency SLOs, request tracing, flight recorder) is on by default
    and never changes a response byte (``--no-ops`` to disable).
``trace <id>``
    Fetch one request trace from a running service (``GET /trace/{id}``)
    and render the wall-clock span tree.
``flight dump``
    Capture a flight-recorder post-mortem bundle (JSON + HTML) from a
    running service on demand.
``list``
    List the available experiment ids.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import __version__
from repro.core.fst import FSTSimulation
from repro.core.network import D2DNetwork
from repro.core.st import STSimulation
from repro.experiments import EXPERIMENTS
from repro.experiments.scaling import run_scaling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Firefly-inspired improved distributed proximity algorithm "
            "for D2D communication (IPDPSW 2015 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a paper artifact")
    exp.add_argument("id", choices=sorted(EXPERIMENTS), help="experiment id")
    exp.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="device counts for fig3/fig4 (default: paper grid)",
    )
    exp.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="repetition seeds for fig3/fig4",
    )

    sim = sub.add_parser("simulate", help="run one scenario")
    sim.add_argument("--devices", "-n", type=int, default=None)
    sim.add_argument("--area", type=float, default=None, help="side (m)")
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument(
        "--scenario",
        default="paper",
        help="named preset (paper, stadium, mall, campus, iot)",
    )
    sim.add_argument(
        "--algorithm",
        choices=("st", "fst", "both"),
        default="both",
    )
    sim.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault plan, e.g. "
        "'beacon_loss=0.05,crash=0.1,collision=0.2,drift=0.001' "
        "(see repro.faults.FaultConfig.from_spec)",
    )
    sim.add_argument(
        "--shards",
        default=None,
        metavar="RxC",
        help="run the scenario as a sharded city over an RxC tiling "
        "(e.g. 2x2): every tile an independent single-region shard, "
        "cross-tile proximity via halo exchange (see docs/sharding.md)",
    )
    sim.add_argument(
        "--shard-workers",
        type=int,
        default=1,
        metavar="N",
        help="process-pool size for --shards (content is identical for "
        "every N; default 1)",
    )
    sim.add_argument(
        "--canonical",
        default=None,
        metavar="PATH",
        help="with --shards: write the canonical sharded-run document "
        "(JSON) for byte comparison between runs",
    )
    sim.add_argument(
        "--breakdown", action="store_true", help="print per-kind message bill"
    )
    sim.add_argument(
        "--export-csv",
        default=None,
        metavar="PATH",
        help="also write the run results as CSV",
    )
    sim.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL event trace (ps_tx, merge, beacon_period, ...)",
    )
    sim.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the metrics registry snapshot (+probes, spans, "
        "alerts) as JSON",
    )
    sim.add_argument(
        "--live",
        action="store_true",
        help="print one-line progress updates from the telemetry bus "
        "(sync spread, fragment counts, analyzer alerts) as the run "
        "advances",
    )

    prof = sub.add_parser(
        "profile",
        help="run an experiment and print its wall-clock span tree",
    )
    prof.add_argument("id", choices=sorted(EXPERIMENTS), help="experiment id")
    prof.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="device counts for fig3/fig4 (default: 50 100 — a fast grid)",
    )
    prof.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="repetition seeds for fig3/fig4 (default: 1)",
    )
    prof.add_argument(
        "--min-ms",
        type=float,
        default=0.0,
        help="hide spans shorter than this many milliseconds",
    )
    prof.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="also write the aggregated metrics snapshot as JSON",
    )
    prof.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="export the span tree (plus headline counters) as JSON",
    )
    prof.add_argument(
        "--folded",
        default=None,
        metavar="PATH",
        help="export folded stacks (self-time µs per call path) for "
        "flamegraph.pl / speedscope",
    )
    prof.add_argument(
        "--top",
        type=int,
        default=15,
        help="rows in the printed per-span profile table (default 15)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the discovery service over a live churning world",
    )
    serve.add_argument("--devices", "-n", type=int, default=256)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642, help="0 = OS-assigned port"
    )
    serve.add_argument(
        "--arrival-rate", type=float, default=2.0,
        help="Poisson mean arrivals per epoch",
    )
    serve.add_argument(
        "--departure-rate", type=float, default=2.0,
        help="Poisson mean departures per epoch",
    )
    serve.add_argument(
        "--min-population", type=int, default=2,
        help="population floor enforced by the steady-state driver",
    )
    serve.add_argument(
        "--max-population", type=int, default=None,
        help="population ceiling (default: the whole universe)",
    )
    serve.add_argument(
        "--step-ms", type=float, default=1000.0,
        help="simulated milliseconds per world epoch",
    )
    serve.add_argument(
        "--auto-step", type=float, default=0.0, metavar="SECONDS",
        help="step the world every SECONDS of wall time (0 = only on "
        "POST /world/step)",
    )
    serve.add_argument(
        "--for-seconds", type=float, default=None,
        help="exit after this many wall seconds (for tests and CI)",
    )
    serve.add_argument(
        "--no-ops", action="store_true",
        help="disable the ops plane (no tracing, SLOs or flight recorder; "
        "response bytes are identical either way)",
    )
    serve.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="write flight-recorder bundles here on alert/5xx/invariant "
        "(default: record in memory only, dump via GET /ops/flight)",
    )
    serve.add_argument(
        "--request-log-max", type=int, default=4096, metavar="N",
        help="bound on the replayable request log embedded in flight "
        "bundles (0 disables request logging)",
    )

    trace = sub.add_parser(
        "trace",
        help="fetch one request trace from a running service and render "
        "the span tree",
    )
    trace.add_argument("trace_id", help="trace id, e.g. t00000007")
    trace.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="service base URL (default: http://127.0.0.1:8642)",
    )

    flight = sub.add_parser(
        "flight",
        help="flight-recorder operations against a running service",
    )
    flight_sub = flight.add_subparsers(dest="flight_command", required=True)
    flight_dump = flight_sub.add_parser(
        "dump", help="capture a post-mortem bundle (JSON + HTML) on demand"
    )
    flight_dump.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="service base URL (default: http://127.0.0.1:8642)",
    )
    flight_dump.add_argument(
        "--output", "-o", default="results/flight", metavar="DIR",
        help="directory for the bundle pair (default: results/flight)",
    )

    conf = sub.add_parser(
        "conformance",
        help="golden-trace conformance gate (record / run / diff)",
    )
    conf_sub = conf.add_subparsers(dest="conformance_command", required=True)

    conf_run = conf_sub.add_parser(
        "run", help="replay the committed golden corpus (+relations)"
    )
    conf_run.add_argument(
        "--goldens", default="tests/goldens", help="corpus directory"
    )
    conf_run.add_argument(
        "--skip-relations",
        action="store_true",
        help="replay goldens only; skip the metamorphic relation registry",
    )
    conf_run.add_argument(
        "--ops",
        action="store_true",
        help="replay under a process-default ops plane (tracing, SLOs, "
        "flight recorder live) — the committed bytes must still match, "
        "proving the ops plane never leaks into canonical output",
    )

    conf_rec = conf_sub.add_parser(
        "record", help="(re)record the golden corpus and bill fixture"
    )
    conf_rec.add_argument(
        "--goldens", default="tests/goldens", help="corpus directory"
    )

    conf_diff = conf_sub.add_parser(
        "diff", help="run one differential pair on an ad-hoc config"
    )
    conf_diff.add_argument(
        "pair",
        help="faults | boruvka | ffa | shard | service | service-ops | all",
    )
    conf_diff.add_argument("--devices", "-n", type=int, default=32)
    conf_diff.add_argument("--seed", type=int, default=1)

    sub.add_parser("list", help="list experiment ids")

    report = sub.add_parser(
        "report",
        help="write a markdown experiment report, or — with --metrics — "
        "a self-contained HTML run report from run artifacts",
    )
    report.add_argument(
        "--output",
        "-o",
        default=None,
        help="output path (default: results/REPORT.md, or "
        "results/run_report.html in the --metrics run-report mode)",
    )
    report.add_argument(
        "--full", action="store_true", help="use the paper's full grid"
    )
    report.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="metrics JSON written by `repro simulate --metrics`; renders "
        "a single-file HTML run report instead of the markdown report",
    )
    report.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="JSONL trace to fold into the HTML run report "
        "(requires --metrics)",
    )
    report.add_argument(
        "--title", default=None, help="HTML run report title"
    )
    report.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="bench-history JSONL; appends the benchmark-trend sparkline "
        "section to the HTML run report (requires --metrics)",
    )

    trend = sub.add_parser(
        "trend",
        help="render benchmark wall-time / budget-headroom trends "
        "(sparklines) from committed baselines, the bench history file "
        "and fresh results",
    )
    trend.add_argument(
        "--baselines",
        default="benchmarks/baselines",
        metavar="DIR",
        help="committed baseline artifacts (default: benchmarks/baselines)",
    )
    trend.add_argument(
        "--results",
        default="results",
        metavar="DIR",
        help="fresh BENCH_*.json artifacts (default: results)",
    )
    trend.add_argument(
        "--history",
        default="results/bench_history.jsonl",
        metavar="PATH",
        help="bench-history JSONL (default: results/bench_history.jsonl)",
    )
    trend.add_argument(
        "--record",
        action="store_true",
        help="append the current results artifacts to the history file "
        "before rendering",
    )
    trend.add_argument(
        "--label",
        default="",
        help="label for --record entries (default: run-<seq>)",
    )
    trend.add_argument(
        "--output",
        "-o",
        default="results/trend_report.html",
        metavar="PATH",
        help="output HTML path (default: results/trend_report.html)",
    )
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.id in ("fig3", "fig4"):
        kwargs = {}
        if args.sizes:
            kwargs["sizes"] = tuple(args.sizes)
        if args.seeds:
            kwargs["seeds"] = tuple(args.seeds)
        result = run_scaling(**kwargs)
        print(result.render_fig3() if args.id == "fig3" else result.render_fig4())
        return 0
    result = EXPERIMENTS[args.id]()
    print(result.render())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.obs import Observability, write_jsonl_trace, write_metrics_json
    from repro.scenarios import get_scenario

    try:
        config = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    overrides = {"seed": args.seed}
    if args.devices is not None:
        overrides["n_devices"] = args.devices
    if args.area is not None:
        overrides["area_side_m"] = args.area
    if args.faults is not None:
        from repro.faults import FaultConfig

        try:
            overrides["faults"] = FaultConfig.from_spec(args.faults)
        except ValueError as exc:
            print(f"invalid --faults spec: {exc}", file=sys.stderr)
            return 2
    try:
        config = config.replace(**overrides)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    if args.shards is not None:
        return _simulate_sharded(args, config)
    try:
        network = D2DNetwork(config)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    stats = network.degree_stats()
    print(
        f"topology [{args.scenario}]: {network.n} devices, "
        f"{config.area_side_m:.0f} m side, mean degree {stats['mean']:.1f}"
    )
    # one shared bundle: the algorithm label keeps the runs apart; the
    # telemetry bus is always on so alerts land in the metrics artifact
    obs = Observability(keep_trace=args.trace is not None, stream=True)
    if args.live:
        from repro.obs.analyzers import LiveProgress

        obs.bus.subscribe(LiveProgress())
    runs = []
    if args.algorithm in ("st", "both"):
        runs.append(STSimulation(network, obs=obs).run())
    if args.algorithm in ("fst", "both"):
        runs.append(FSTSimulation(network, obs=obs).run())
    obs.bus.finalize()
    if config.faults is not None and config.faults.active:
        print(f"faults: {args.faults}")
    for result in runs:
        print(result.summary())
        if "faults_injected" in result.extra:
            print(
                f"  faults injected {result.extra['faults_injected']}, "
                f"crashed {result.extra.get('crashed', 0)}, "
                f"repairs {result.extra.get('repairs', 0)}, "
                f"discovery retries {result.extra.get('discovery_retries', 0)}"
            )
        if args.breakdown:
            for kind, count in sorted(result.message_breakdown.items()):
                if count:
                    print(f"  {kind:<24} {count:>8}")
    alerts = obs.bus.alerts
    if alerts:
        critical = sum(1 for a in alerts if a.severity == "critical")
        print(f"alerts: {len(alerts)} fired ({critical} critical)")
    if args.export_csv:
        from repro.analysis.export import runs_to_csv

        rows = runs_to_csv(runs, args.export_csv)
        print(f"wrote {rows} rows to {args.export_csv}")
    if args.trace:
        try:
            lines = write_jsonl_trace(obs.trace, args.trace, causal=True)
        except OSError as exc:
            print(f"cannot write trace {args.trace}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {lines} trace events to {args.trace}")
    if args.metrics:
        try:
            write_metrics_json(
                obs,
                args.metrics,
                extra={
                    "command": "simulate",
                    "scenario": args.scenario,
                    "seed": args.seed,
                },
            )
        except OSError as exc:
            print(
                f"cannot write metrics {args.metrics}: {exc}", file=sys.stderr
            )
            return 2
        print(f"wrote metrics snapshot to {args.metrics}")
    return 0


def _simulate_sharded(args: argparse.Namespace, config) -> int:
    """``repro simulate --shards RxC``: the sharded-city execution path."""
    import pathlib

    from repro.shard import CityConfig, parse_tiles, run_city

    try:
        rows, cols = parse_tiles(args.shards)
        city = CityConfig(config, rows, cols)
    except ValueError as exc:
        print(f"invalid --shards configuration: {exc}", file=sys.stderr)
        return 2
    algorithms = (
        ("st", "fst") if args.algorithm == "both" else (args.algorithm,)
    )
    res = run_city(
        city,
        algorithms=algorithms,
        workers=max(1, args.shard_workers),
        collect_obs=True,
        measure_memory=True,
    )
    print(
        f"city [{args.scenario}]: {config.n_devices} devices over "
        f"{rows}x{cols} tiles of {city.tile_side_m:.0f} m, "
        f"{args.shard_workers} worker(s), wall {res.wall_s:.2f} s, "
        f"peak {res.peak_mb:.1f} MB"
    )
    for shard in res.shards:
        run_messages = sum(
            int(r["result"]["messages"]) for r in shard["runs"].values()
        )
        print(
            f"  shard {shard['shard_id']:>3} "
            f"n={shard['n']:>6} seed={shard['seed']} "
            f"messages={run_messages}"
        )
    halo = res.halo
    print(
        f"halo: radius {halo['radius_m']:.1f} m, "
        f"{halo['links']} cross-tile links of {halo['candidates']} "
        f"candidates, digest {halo['digest'][:16]}"
    )
    print(
        f"city total: messages {res.messages}, "
        f"converged {res.converged}, time {res.time_ms:.1f} ms, "
        f"content {res.content_hash[:16]}"
    )
    if args.breakdown:
        for algorithm in algorithms:
            for kind, count in sorted(res.bill[algorithm].items()):
                if count:
                    print(f"  {algorithm}/{kind:<24} {count:>8}")
    if args.canonical:
        try:
            path = pathlib.Path(args.canonical)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(res.canonical() + "\n")
        except OSError as exc:
            print(
                f"cannot write canonical doc {args.canonical}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"wrote canonical sharded-run doc to {args.canonical}")
    if args.metrics:
        from repro.obs.aggregate import write_snapshot

        try:
            write_snapshot(res.merged_obs, args.metrics)
        except OSError as exc:
            print(
                f"cannot write metrics {args.metrics}: {exc}", file=sys.stderr
            )
            return 2
        print(f"wrote merged shard snapshot to {args.metrics}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import Observability, activate, write_metrics_json

    obs = Observability()
    with activate(obs), obs.span(f"experiment:{args.id}"):
        if args.id in ("fig3", "fig4"):
            sizes = tuple(args.sizes) if args.sizes else (50, 100)
            seeds = tuple(args.seeds) if args.seeds else (1,)
            run_scaling(sizes=sizes, seeds=seeds)
        else:
            EXPERIMENTS[args.id]()
    from repro.obs.profile import profile_table, render_folded, render_profile_table

    print(obs.spans.render_tree(min_ms=args.min_ms))
    rows = profile_table(obs.spans)
    if rows:
        print(f"\nper-span profile (top {args.top} by self time):")
        print(render_profile_table(rows, top=args.top))
    messages = obs.metrics.get("messages_total")
    if messages is not None:
        print("\nmessages_total by algorithm:")
        for algo, total in sorted(messages.breakdown("algorithm").items()):
            print(f"  {algo:<4} {int(total)}")
    if args.folded:
        import pathlib

        try:
            path = pathlib.Path(args.folded)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(render_folded(obs.spans) + "\n")
        except OSError as exc:
            print(
                f"cannot write folded stacks {args.folded}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"wrote folded stacks to {args.folded} "
              "(flamegraph.pl / speedscope)")
    if args.metrics:
        try:
            write_metrics_json(obs, args.metrics, extra={"command": "profile"})
        except OSError as exc:
            print(
                f"cannot write metrics {args.metrics}: {exc}", file=sys.stderr
            )
            return 2
        print(f"wrote metrics snapshot to {args.metrics}")
    if args.json_path:
        import json
        import pathlib

        doc = {
            "schema": "repro.obs/1",
            "command": "profile",
            "experiment": args.id,
            "spans": obs.spans.to_dicts(),
        }
        if messages is not None:
            doc["messages_total"] = {
                algo: int(total)
                for algo, total in sorted(
                    messages.breakdown("algorithm").items()
                )
            }
        try:
            path = pathlib.Path(args.json_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            print(
                f"cannot write span tree {args.json_path}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"wrote span tree to {args.json_path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.config import PaperConfig
    from repro.service import (
        DiscoveryApp,
        ServiceServer,
        SteadyStateWorld,
        WorldConfig,
    )

    try:
        base = PaperConfig(n_devices=args.devices, seed=args.seed)
        wcfg = WorldConfig(
            base=base,
            arrival_rate=args.arrival_rate,
            departure_rate=args.departure_rate,
            min_population=args.min_population,
            max_population=args.max_population,
            step_ms=args.step_ms,
        )
    except ValueError as exc:
        print(f"invalid world config: {exc}", file=sys.stderr)
        return 2
    print(
        f"building world: n={base.n_devices} seed={base.seed} "
        f"rates={wcfg.arrival_rate:g}/{wcfg.departure_rate:g} per epoch"
    )
    world = SteadyStateWorld(wcfg)
    if args.no_ops:
        app = DiscoveryApp(world)
        print("ops plane: disabled")
    else:
        from repro.obs import FlightRecorder
        from repro.obs.ops import OpsPlane
        from repro.service import RequestLog

        flight = FlightRecorder(out_dir=args.flight_dir)
        request_log = (
            RequestLog(max_entries=args.request_log_max)
            if args.request_log_max > 0
            else None
        )
        app = DiscoveryApp(
            world, ops=OpsPlane(flight=flight), request_log=request_log
        )
        sink = args.flight_dir or "memory (GET /ops/flight)"
        print(f"ops plane: SLOs + tracing live, flight bundles -> {sink}")
    server = ServiceServer(app, args.host, args.port)

    async def _main() -> None:
        await server.start()
        print(f"serving on {server.url}")
        stepper = None
        if args.auto_step > 0:

            async def _auto_step() -> None:
                while True:
                    await asyncio.sleep(args.auto_step)
                    if not world.paused:
                        world.step()

            stepper = asyncio.get_running_loop().create_task(_auto_step())
        try:
            await server.serve_forever(for_seconds=args.for_seconds)
        finally:
            if stepper is not None:
                stepper.cancel()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.conformance import (
        record_corpus,
        render_summary,
        run_pairs,
        run_relations,
        verify_corpus,
    )
    from repro.core.config import PaperConfig

    if args.conformance_command == "record":
        paths = record_corpus(args.goldens)
        print(f"recorded {len(paths)} files under {args.goldens}")
        return 0

    if args.conformance_command == "run":
        from contextlib import nullcontext

        if args.ops:
            from repro.obs import FlightRecorder
            from repro.obs.ops import OpsPlane, default_ops

            scope = default_ops(OpsPlane(flight=FlightRecorder()))
        else:
            scope = nullcontext()
        with scope:
            checks = verify_corpus(args.goldens)
            if not args.skip_relations:
                checks += [
                    (f"relation:{name}", div)
                    for name, div in run_relations(
                        PaperConfig(n_devices=16, seed=1)
                    )
                ]
        title = "conformance run [+ops]" if args.ops else "conformance run"
        print(render_summary(checks, title=title))
        return 1 if any(div is not None for _, div in checks) else 0

    if args.conformance_command == "diff":
        config = PaperConfig(n_devices=args.devices, seed=args.seed)
        try:
            names = None if args.pair == "all" else (args.pair,)
            outcomes = run_pairs(config, names)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        checks = [(o.pair, o.divergence) for o in outcomes]
        print(render_summary(checks, title="conformance diff"))
        for o in outcomes:
            print(f"  [{o.pair}] {o.detail}")
        return 1 if any(not o.ok for o in outcomes) else 0

    raise AssertionError(
        f"unhandled conformance command {args.conformance_command!r}"
    )


def _fetch_json(url: str) -> tuple[int, dict]:
    """GET ``url`` and parse the JSON body (also on error statuses)."""
    import json
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.ops import OpsSpan, render_trace

    url = f"{args.url.rstrip('/')}/trace/{args.trace_id}"
    try:
        status, doc = _fetch_json(url)
    except OSError as exc:
        print(f"cannot reach service at {args.url}: {exc}", file=sys.stderr)
        return 2
    if status != 200:
        print(f"{url}: {status} {doc.get('error', '')}", file=sys.stderr)
        return 1
    spans = [OpsSpan.from_dict(d) for d in doc["spans"]]
    print(f"trace {doc['trace_id']} ({len(spans)} spans)")
    print(render_trace(spans))
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.obs.flight import render_flight_html

    url = f"{args.url.rstrip('/')}/ops/flight"
    try:
        status, doc = _fetch_json(url)
    except OSError as exc:
        print(f"cannot reach service at {args.url}: {exc}", file=sys.stderr)
        return 2
    if status != 200:
        print(f"{url}: {status} {doc.get('error', '')}", file=sys.stderr)
        return 1
    directory = pathlib.Path(args.output)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / "flight_manual.json"
    html_path = directory / "flight_manual.html"
    json_path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    html_path.write_text(render_flight_html(doc), encoding="utf-8")
    print(
        f"flight bundle: {len(doc.get('requests', []))} requests, "
        f"{len(doc.get('alerts', []))} alerts, "
        f"{len(doc.get('violations', []))} violations"
    )
    print(f"wrote {json_path} and {html_path}")
    return 0


def _cmd_run_report(args: argparse.Namespace) -> int:
    """HTML run-report mode of ``repro report`` (from run artifacts)."""
    import json

    from repro.obs import read_jsonl_trace
    from repro.obs.report import load_metrics_document, write_run_report

    try:
        doc = load_metrics_document(args.metrics)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(
            f"cannot read metrics document {args.metrics}: {exc}",
            file=sys.stderr,
        )
        return 2
    records = None
    if args.trace:
        try:
            records = read_jsonl_trace(args.trace)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"cannot read trace {args.trace}: {exc}", file=sys.stderr)
            return 2
    history_series = None
    if args.history:
        from repro.obs.history import bench_series

        try:
            history_series = bench_series(history_path=args.history)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(
                f"cannot read history {args.history}: {exc}", file=sys.stderr
            )
            return 2
    output = args.output or "results/run_report.html"
    title = args.title or (
        f"repro run report — {doc.get('scenario', 'run')} "
        f"(seed {doc.get('seed', '?')})"
    )
    try:
        path = write_run_report(
            doc, output, records, title=title, history_series=history_series
        )
    except OSError as exc:
        print(f"cannot write report {output}: {exc}", file=sys.stderr)
        return 2
    alerts = doc.get("alerts", [])
    print(f"wrote run report to {path} ({len(alerts)} alerts)")
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    """Render the benchmark trend report (``repro trend``)."""
    import json

    from repro.obs.history import (
        append_history,
        bench_series,
        trend_rows,
        write_trend_report,
    )

    try:
        if args.record:
            import pathlib

            recorded = 0
            results = pathlib.Path(args.results)
            for path in sorted(results.glob("BENCH_*.json")):
                artifact = json.loads(path.read_text())
                if artifact.get("schema") != "repro.bench/1":
                    continue
                point = append_history(args.history, artifact, args.label)
                print(
                    f"recorded {point.bench} seq {point.seq} "
                    f"({point.label}) into {args.history}"
                )
                recorded += 1
            if not recorded:
                print(f"no bench artifacts found under {args.results}")
        series = bench_series(
            baseline_dir=args.baselines,
            history_path=args.history,
            results_dir=args.results,
        )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot assemble bench history: {exc}", file=sys.stderr)
        return 2
    if not series:
        print(
            "no benchmark artifacts in any source "
            f"({args.baselines}, {args.history}, {args.results})",
            file=sys.stderr,
        )
        return 2
    try:
        path = write_trend_report(series, args.output)
    except OSError as exc:
        print(f"cannot write trend report {args.output}: {exc}", file=sys.stderr)
        return 2
    for row in trend_rows(series):
        delta = (
            f"{row.delta_prev:+.1%} vs prev"
            if row.delta_prev is not None
            else "single point"
        )
        headroom = (
            f", headroom {row.headroom:+.4f} ({row.headroom_name})"
            if row.headroom is not None
            else ""
        )
        print(f"  {row.bench:<28} {row.points} point(s), {delta}{headroom}")
    print(f"wrote trend report to {path}")
    return 0


def _cmd_list() -> int:
    for exp_id in sorted(EXPERIMENTS):
        print(exp_id)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "flight":
        return _cmd_flight(args)
    if args.command == "conformance":
        return _cmd_conformance(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "trend":
        return _cmd_trend(args)
    if args.command == "report":
        if args.metrics is not None:
            return _cmd_run_report(args)
        if args.trace is not None:
            print("--trace requires --metrics", file=sys.stderr)
            return 2
        if args.history is not None:
            print("--history requires --metrics", file=sys.stderr)
            return 2
        from repro.experiments.report import generate_report

        report = generate_report(fast=not args.full)
        path = report.save(args.output or "results/REPORT.md")
        print(f"report written to {path}")
        print(
            f"checks: {'all pass' if report.all_checks_pass else 'FAILURES'}; "
            f"message crossover n={report.crossover_messages}"
        )
        return 0 if report.all_checks_pass else 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
