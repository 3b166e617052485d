"""Ablation benches for the design decisions called out in DESIGN.md §6.

Each ablation flips one modelling choice and reports the consequence:

* refractory window off → more pulses to reach synchrony (echo churn);
* collision policy (tolerant / capture / destructive) on sync pulses;
* merge rule: plain Borůvka vs. level-based GHS (same tree, different
  round/message profile);
* RSSI (shadowed) edge weights vs. oracle true-distance weights — what
  the eq. 6–12 ranging error costs the tree;
* discovery beacon preamble-pool size vs. FST discovery latency.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_and_print, timed_pedantic, write_bench_json
from repro.analysis.tables import format_table
from repro.core.beacon import SparseBeaconDiscovery
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.pulsesync import SparsePulseSyncKernel
from repro.oscillator.prc import LinearPRC
from repro.spanningtree.boruvka import distributed_boruvka
from repro.spanningtree.ghs import distributed_ghs
from repro.spanningtree.mst import maximum_spanning_tree, tree_weight


def _network(n: int = 100, seed: int = 5) -> D2DNetwork:
    return D2DNetwork(PaperConfig(seed=seed).with_devices(n, keep_density=False))


def _sync_run(net: D2DNetwork, *, refractory_ms: float, policy: str):
    cfg = net.config
    budget = net.sparse_budget
    kernel = SparsePulseSyncKernel(
        budget.link_indptr,
        budget.link_indices,
        budget.link_power_dbm,
        LinearPRC.from_dissipation(cfg.dissipation, cfg.epsilon),
        period_ms=cfg.period_ms,
        threshold_dbm=cfg.threshold_dbm,
        refractory_ms=refractory_ms,
        sync_window_ms=cfg.sync_window_ms,
        fading=budget.fading,
        collision_policy=policy,
    )
    return kernel.run(np.random.default_rng(9), max_time_ms=60_000.0)


def test_ablation_refractory(benchmark, results_dir, bench_json_dir):
    """DESIGN §6.2 — removing the refractory window costs pulses."""
    net = _network()

    def run_both():
        with_r = _sync_run(net, refractory_ms=net.config.refractory_ms, policy="tolerant")
        without = _sync_run(net, refractory_ms=0.0, policy="tolerant")
        return with_r, without

    (with_r, without), wall_s = timed_pedantic(benchmark, run_both)
    rows = [
        ["refractory 1 slot", with_r.messages, f"{with_r.time_ms:.0f}", with_r.converged],
        ["no refractory", without.messages, f"{without.time_ms:.0f}", without.converged],
    ]
    save_and_print(
        results_dir,
        "ablation_refractory",
        "Ablation — refractory window (mesh sync, n=100)\n"
        + format_table(["variant", "messages", "time ms", "converged"], rows),
    )
    assert with_r.converged
    assert without.messages >= with_r.messages
    write_bench_json(
        bench_json_dir,
        "ablation_refractory",
        wall_s,
        {
            "with_refractory_messages": with_r.messages,
            "without_refractory_messages": without.messages,
        },
    )


def test_ablation_collision_policy(benchmark, results_dir, bench_json_dir):
    """DESIGN §6 — pulse-detection policy under superposition."""
    net = _network()

    def run_all():
        return {p: _sync_run(net, refractory_ms=1.0, policy=p)
                for p in ("tolerant", "capture", "destructive")}

    runs, wall_s = timed_pedantic(benchmark, run_all)
    rows = [
        [p, r.messages, f"{r.time_ms:.0f}", r.converged]
        for p, r in runs.items()
    ]
    save_and_print(
        results_dir,
        "ablation_collision_policy",
        "Ablation — collision policy on sync pulses (mesh sync, n=100)\n"
        + format_table(["policy", "messages", "time ms", "converged"], rows),
    )
    # the paper's tolerant assumption must synchronize
    assert runs["tolerant"].converged
    # destroying collided pulses can never be faster than tolerating them
    assert runs["destructive"].time_ms >= runs["tolerant"].time_ms
    write_bench_json(
        bench_json_dir,
        "ablation_collision_policy",
        wall_s,
        {
            policy: {"messages": r.messages, "time_ms": r.time_ms}
            for policy, r in runs.items()
        },
    )


def test_ablation_merge_rule(benchmark, results_dir, bench_json_dir):
    """DESIGN §6.3 — Borůvka vs. GHS level-based merging."""
    net = _network()

    def run_both():
        return (
            distributed_boruvka(net.weights, net.adjacency),
            distributed_ghs(net.weights, net.adjacency),
        )

    (boruvka, ghs), wall_s = timed_pedantic(benchmark, run_both)
    oracle = maximum_spanning_tree(net.weights, net.adjacency)
    rows = [
        [
            "Borůvka",
            boruvka.phase_count,
            boruvka.counter.total,
            f"{tree_weight(net.weights, boruvka.edges):.1f}",
        ],
        [
            "GHS (levels)",
            ghs.phase_count,
            ghs.counter.total,
            f"{tree_weight(net.weights, ghs.edges):.1f}",
        ],
    ]
    save_and_print(
        results_dir,
        "ablation_merge_rule",
        "Ablation — fragment merge rule (n=100)\n"
        + format_table(["rule", "rounds", "messages", "tree weight dBm"], rows),
    )
    # distinct weights → both must find the unique maximum spanning tree
    assert boruvka.edges == oracle
    assert ghs.edges == oracle
    # GHS's wait rule can only add rounds, never remove them
    assert ghs.phase_count >= boruvka.phase_count
    write_bench_json(
        bench_json_dir,
        "ablation_merge_rule",
        wall_s,
        {
            "boruvka": {
                "rounds": boruvka.phase_count,
                "messages": boruvka.counter.total,
            },
            "ghs": {"rounds": ghs.phase_count, "messages": ghs.counter.total},
        },
    )


def test_ablation_rssi_vs_oracle_weights(benchmark, results_dir, bench_json_dir):
    """DESIGN §6.4 — what the shadowed-RSSI weights cost vs. true distance."""
    net = _network()

    def run_both():
        rssi_tree = distributed_boruvka(net.weights, net.adjacency).edges
        # oracle: maximize -distance (closest-pair tree)
        oracle_w = -net.true_distances()
        oracle_tree = distributed_boruvka(oracle_w, net.adjacency).edges
        return rssi_tree, oracle_tree

    (rssi_tree, oracle_tree), wall_s = timed_pedantic(benchmark, run_both)
    dist = net.true_distances()

    def mean_edge_m(edges):
        return float(np.mean([dist[u, v] for u, v in edges]))

    rows = [
        ["RSSI (paper)", f"{mean_edge_m(rssi_tree):.2f}"],
        ["oracle distance", f"{mean_edge_m(oracle_tree):.2f}"],
    ]
    save_and_print(
        results_dir,
        "ablation_rssi_weights",
        "Ablation — edge weights: shadowed RSSI vs oracle distance (n=100)\n"
        + format_table(["weights", "mean tree-edge length (m)"], rows),
    )
    # shadowing can only make the tree geometrically worse (longer links)
    assert mean_edge_m(rssi_tree) >= mean_edge_m(oracle_tree) - 1e-9
    write_bench_json(
        bench_json_dir,
        "ablation_rssi_weights",
        wall_s,
        {
            "rssi_mean_edge_m": mean_edge_m(rssi_tree),
            "oracle_mean_edge_m": mean_edge_m(oracle_tree),
        },
    )


def test_ablation_continuous_vs_pulse_coupling(benchmark, results_dir, bench_json_dir):
    """Ref [16]'s continuous (Kuramoto) coupling vs the paper's pulse
    coupling on the identical proximity mesh — both must reach synchrony
    on a connected graph; the PCO additionally aligns firing instants."""
    from repro.oscillator.kuramoto import KuramotoNetwork

    net = _network(n=40)

    def run_both():
        pco = _sync_run(net, refractory_ms=1.0, policy="tolerant")
        kuramoto = KuramotoNetwork(net.adjacency, coupling=2.0).run(
            np.random.default_rng(9).uniform(-2.0, 2.0, net.n),
            duration=100.0,
        )
        return pco, kuramoto

    (pco, kuramoto), wall_s = timed_pedantic(benchmark, run_both)
    rows = [
        ["pulse-coupled (paper §III)", f"{pco.time_ms:.0f} ms",
         f"{pco.messages} messages", pco.converged],
        ["Kuramoto (ref [16])",
         f"{kuramoto.lock_time:.1f} time units" if kuramoto.locked else "-",
         "continuous (no messages)", kuramoto.locked],
    ]
    save_and_print(
        results_dir,
        "ablation_coupling_model",
        "Ablation — pulse vs continuous coupling (mesh, n=40)\n"
        + format_table(["model", "lock time", "cost", "synchronized"], rows),
    )
    assert pco.converged and kuramoto.locked
    write_bench_json(
        bench_json_dir,
        "ablation_coupling_model",
        wall_s,
        {
            "pco_time_ms": pco.time_ms,
            "pco_messages": pco.messages,
            "kuramoto_lock_time": kuramoto.lock_time,
        },
    )


def test_ablation_beacon_preambles(benchmark, results_dir, bench_json_dir):
    """DESIGN §6 — preamble-pool size vs discovery latency (n=300)."""
    net = _network(n=300)
    cfg = net.config
    budget = net.sparse_budget
    # every proximity link with the discovery margin to spare
    required = budget.edge_is_link & (
        budget.power_dbm >= cfg.threshold_dbm + cfg.discovery_margin_db
    )

    def run_pools():
        out = {}
        for pool in (1, 4, 8, 16):
            disc = SparseBeaconDiscovery(
                budget,
                threshold_dbm=cfg.threshold_dbm,
                period_slots=cfg.period_slots,
                slot_ms=cfg.slot_ms,
                preambles=pool,
            ).run(np.random.default_rng(11), required=required, max_periods=2000)
            out[pool] = disc
        return out

    runs, wall_s = timed_pedantic(benchmark, run_pools)
    rows = [
        [pool, r.periods, r.messages, r.complete]
        for pool, r in runs.items()
    ]
    save_and_print(
        results_dir,
        "ablation_beacon_preambles",
        "Ablation — discovery preamble pool (full mesh discovery, n=300)\n"
        + format_table(["preambles", "periods", "messages", "complete"], rows),
    )
    assert runs[8].complete
    # a bigger orthogonal pool can only speed discovery up
    assert runs[16].periods <= runs[1].periods
    write_bench_json(
        bench_json_dir,
        "ablation_beacon_preambles",
        wall_s,
        {
            str(pool): {"periods": r.periods, "messages": r.messages}
            for pool, r in runs.items()
        },
    )
