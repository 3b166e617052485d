"""Extension benches — the paper's §VI future work, made measurable.

* service dissemination: tree convergecast/broadcast vs mesh flooding
  (the §I "reduce control overhead" motivation, quantified);
* churn: spanning-tree repair vs full rebuild after a device failure;
* mobility: re-synchronization cost and tree stability under motion.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import save_and_print, timed_pedantic, write_bench_json
from repro.analysis.tables import format_table
from repro.core.beacon import SparseBeaconDiscovery
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.st import STSimulation
from repro.discovery.aggregation import aggregate_interests, flood_interests
from repro.mobility.resync import MobilitySession
from repro.mobility.waypoint import RandomWaypoint
from repro.spanningtree.boruvka import distributed_boruvka_csr
from repro.spanningtree.repair import repair_after_failure_csr


def test_extension_service_dissemination(benchmark, results_dir, bench_json_dir):
    """Tree aggregation must beat flooding by ~n/2 in messages."""
    net = D2DNetwork(PaperConfig(seed=31))
    st = STSimulation(net).run()
    services = np.random.default_rng(31).integers(0, 4, net.n)
    head = st.tree_edges[0][0]

    def run_both():
        return (
            aggregate_interests(st.tree_edges, services, head),
            flood_interests(net.adjacency, services),
        )

    (tree, flood), wall_s = timed_pedantic(benchmark, run_both)
    rows = [
        ["tree convergecast+broadcast", tree.messages, tree.slots],
        ["mesh flooding", flood.messages, flood.slots],
        ["saving", f"{flood.messages / tree.messages:.1f}x", "-"],
    ]
    save_and_print(
        results_dir,
        "extension_dissemination",
        "Extension — service-interest dissemination (n=50)\n"
        + format_table(["method", "messages", "slots"], rows),
    )
    assert tree.service_map == flood.service_map
    assert tree.messages * 5 < flood.messages
    write_bench_json(
        bench_json_dir,
        "extension_dissemination",
        wall_s,
        {"tree_messages": tree.messages, "flood_messages": flood.messages},
    )


def test_extension_churn_repair(benchmark, results_dir, bench_json_dir):
    """Repairing after one failure must cost far less than rebuilding."""
    net = D2DNetwork(PaperConfig(seed=32).with_devices(200, keep_density=False))
    budget = net.sparse_budget
    tree = distributed_boruvka_csr(
        net.n, budget.link_indptr, budget.link_indices, budget.link_power_dbm
    )

    # fail a mid-degree tree node (an interesting, non-leaf case)
    degree: dict[int, int] = {}
    for u, v in tree.edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    failed = next(i for i, d in sorted(degree.items()) if d >= 2)

    def run_repair():
        return repair_after_failure_csr(tree.edges, failed, budget)

    repair, wall_s = timed_pedantic(benchmark, run_repair)
    rebuild_messages = tree.counter.total
    rows = [
        ["full rebuild", rebuild_messages, tree.phase_count],
        ["repair", repair.messages, repair.phases],
        ["saving", f"{rebuild_messages / max(repair.messages, 1):.1f}x", "-"],
    ]
    save_and_print(
        results_dir,
        "extension_churn_repair",
        f"Extension — tree repair after device {failed} fails (n=200)\n"
        + format_table(["strategy", "messages", "rounds"], rows),
    )
    assert repair.repaired
    assert repair.messages < rebuild_messages
    write_bench_json(
        bench_json_dir,
        "extension_churn_repair",
        wall_s,
        {
            "repair_messages": repair.messages,
            "rebuild_messages": rebuild_messages,
        },
    )


def test_extension_duty_cycle_energy_latency(benchmark, results_dir, bench_json_dir):
    """Power-saving duty cycling (refs [4]-[9]): receive energy falls
    linearly with the duty, discovery latency rises superlinearly."""
    from repro.radio.energy import EnergyModel

    net = D2DNetwork(PaperConfig(seed=36))
    cfg = net.config
    budget = net.sparse_budget
    # every proximity link with the discovery margin to spare
    required = budget.edge_is_link & (
        budget.power_dbm >= cfg.threshold_dbm + cfg.discovery_margin_db
    )
    model = EnergyModel()

    def run_duties():
        out = {}
        for duty in (1.0, 0.5, 0.25):
            disc = SparseBeaconDiscovery(
                budget,
                threshold_dbm=cfg.threshold_dbm,
                period_slots=cfg.period_slots,
                slot_ms=cfg.slot_ms,
                preambles=cfg.beacon_preambles,
                listen_duty=duty,
            ).run(np.random.default_rng(36), required, max_periods=3000)
            out[duty] = disc
        return out

    runs, wall_s = timed_pedantic(benchmark, run_duties)
    rows = []
    for duty, r in runs.items():
        rx_mj = model.listen_energy_mj(r.time_ms * duty, net.n)
        tx_mj = model.tx_energy_mj(r.messages)
        rows.append(
            [duty, r.periods, f"{(tx_mj + rx_mj) / net.n:.1f}", r.complete]
        )
    save_and_print(
        results_dir,
        "extension_duty_cycle",
        "Extension — listen duty cycle: latency vs energy (n=50 discovery)\n"
        + format_table(
            ["duty", "periods", "mJ per device", "complete"], rows
        ),
    )
    assert all(r.complete for r in runs.values())
    assert runs[0.25].periods > runs[1.0].periods
    write_bench_json(
        bench_json_dir,
        "extension_duty_cycle",
        wall_s,
        {str(duty): {"periods": r.periods} for duty, r in runs.items()},
    )


def test_extension_multiservice_trees(benchmark, results_dir, bench_json_dir):
    """Per-service trees vs one global tree + interest aggregation."""
    from repro.core.multiservice import run_multiservice

    net = D2DNetwork(PaperConfig(seed=37).with_devices(120, keep_density=False))
    services = np.random.default_rng(37).integers(0, 3, net.n)

    result, wall_s = timed_pedantic(
        benchmark, lambda: run_multiservice(net, services)
    )
    rows = [
        [f"service {t.service}", len(t.members), len(t.tree_edges), t.messages]
        for t in result.per_service
    ]
    rows.append(["per-service total", net.n, "-", result.per_service_messages])
    rows.append(["global + aggregation", net.n,
                 len(result.global_tree_edges), result.global_messages])
    save_and_print(
        results_dir,
        "extension_multiservice",
        "Extension — per-service trees vs global tree (n=120, 3 services)\n"
        + format_table(["organization", "devices", "edges", "messages"], rows)
        + f"\ncheaper: {result.cheaper}",
    )
    assert result.all_groups_spanned
    write_bench_json(
        bench_json_dir,
        "extension_multiservice",
        wall_s,
        {
            "per_service_messages": result.per_service_messages,
            "global_messages": result.global_messages,
        },
    )


def test_extension_mobility_resync(benchmark, results_dir, bench_json_dir):
    """Re-sync under motion: ~1 pulse/device per epoch, stable trees at
    pedestrian speed."""
    n, side = 40, 90.0
    config = PaperConfig(n_devices=n, area_side_m=side, seed=33)
    mover = RandomWaypoint(
        np.random.default_rng(33).uniform(0, side, size=(n, 2)),
        side,
        speed_range_mps=(1.0, 2.0),
        pause_range_s=(0.0, 0.0),
        rng=np.random.default_rng(34),
    )
    session = MobilitySession(config, mover, seed=35)

    def run_epochs():
        records = []
        for epoch in range(4):
            if epoch:
                for _ in range(5):
                    mover.step(1.0)
            records.append(session.run_epoch())
        return records

    records, wall_s = timed_pedantic(benchmark, run_epochs)
    rows = [
        [r.epoch, f"{r.resync_time_ms:.0f}", r.resync_messages,
         f"{r.tree_stability:.2f}", r.converged]
        for r in records
    ]
    save_and_print(
        results_dir,
        "extension_mobility",
        "Extension — mobility epochs (40 devices, 1-2 m/s)\n"
        + format_table(
            ["epoch", "resync ms", "messages", "tree stability", "converged"],
            rows,
        ),
    )
    assert all(r.converged for r in records)
    assert all(r.resync_messages <= 5 * n for r in records)
    write_bench_json(
        bench_json_dir,
        "extension_mobility",
        wall_s,
        {
            str(r.epoch): {
                "resync_ms": r.resync_time_ms,
                "resync_messages": r.resync_messages,
                "tree_stability": r.tree_stability,
            }
            for r in records
        },
    )
