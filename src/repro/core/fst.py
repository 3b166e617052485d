"""FST baseline — mesh firefly synchronization (Chao et al. [17]).

The existing method the paper compares against: every device runs the
pulse-coupled firefly algorithm over the *whole proximity mesh* on a
single RACH codec, discovering neighbours and service interests from the
same PSs that drive synchronization.  Convergence is emergent — there is
no coordination structure — so at large scale (multi-hop topologies under
constant density) both the time to global synchrony and the number of PS
transmissions grow quickly, which is exactly the scaling weakness
Figs. 3–4 exhibit.

After synchronization the *basic firefly spanning tree* of Fig. 2 is
assembled: every device marks its heaviest (strongest-PS) incident edge;
the resulting heavy-edge forest is stitched into a tree over the heaviest
inter-component links, each stitch costing one RACH2 handshake (2
messages).  The headline metrics (time, messages) are dominated by the
mesh synchronization, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.core.beacon import SparseBeaconDiscovery
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.pulsesync import PhaseHook, SparsePulseSyncKernel
from repro.core.results import RunResult
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.obs import Observability, get_active
from repro.oscillator.prc import LinearPRC
from repro.radio.sparse_link import (
    SparseLinkBudget,
    csr_row_argmax,
    csr_subgraph,
)
from repro.spanningtree.unionfind import UnionFind


def heavy_edge_forest_csr(
    budget: SparseLinkBudget, node_mask: np.ndarray | None = None
) -> list[tuple[int, int]]:
    """Each node's heaviest incident edge (Fig. 2's "selecting heavy edge").

    The union over nodes is a forest (it is a subgraph of the maximum
    spanning tree on distinct weights).  O(E) over the link CSR: each
    row's heaviest link (ties → lowest neighbour id) by
    :func:`~repro.radio.sparse_link.csr_row_argmax`, then a unique over
    packed edge codes.  ``node_mask`` restricts the forest to the
    surviving devices (edges touching a masked-out node are ignored).
    """
    indptr = budget.link_indptr
    nbr = budget.link_indices
    w = budget.link_power_dbm
    if node_mask is not None:
        node_mask = np.asarray(node_mask, dtype=bool)
        rows = budget.link_row_ids
        indptr, nbr, (w,) = csr_subgraph(
            budget.n, rows, nbr, node_mask[rows] & node_mask[nbr], w
        )
    us, vs, _ = csr_row_argmax(indptr, nbr, w)
    if us.size == 0:
        return []
    # deduplicate the per-node (u, heaviest v) pairs via packed codes
    a = np.minimum(us, vs).astype(np.int64)
    b = np.maximum(us, vs).astype(np.int64)
    codes = np.unique((a << np.int64(32)) | b)
    return [(int(c >> 32), int(c & 0xFFFFFFFF)) for c in codes]


def stitch_forest_csr(
    forest: list[tuple[int, int]],
    budget: SparseLinkBudget,
    node_mask: np.ndarray | None = None,
) -> tuple[list[tuple[int, int]], int]:
    """Connect forest components over heaviest available links.

    Returns ``(tree_edges, stitches)``.  Greedy over all inter-component
    links by descending weight — i.e. Kruskal completion of the forest,
    O(E log E); equal-weight candidates are taken in (i, j) row-major
    order.  ``node_mask`` restricts stitching to the surviving devices
    (masked-out nodes stay isolated singletons).
    """
    uf = UnionFind(budget.n)
    edges = list(forest)
    for u, v in forest:
        uf.union(u, v)
    stitches = 0
    if uf.components > 1:
        upper = budget.link_row_ids < budget.link_indices
        iu = budget.link_row_ids[upper]
        ju = budget.link_indices[upper]
        w = budget.link_power_dbm[upper]
        if node_mask is not None:
            node_mask = np.asarray(node_mask, dtype=bool)
            keep = node_mask[iu] & node_mask[ju]
            iu, ju, w = iu[keep], ju[keep], w[keep]
        # greedy union over candidates sorted by (weight desc, i, j)
        for k in np.lexsort((ju, iu, -w)):
            u, v = int(iu[k]), int(ju[k])
            if uf.union(u, v):
                edges.append((u, v))
                stitches += 1
                if uf.components == 1:
                    break
    return sorted(edges), stitches


def _tree_weight_for(net: D2DNetwork, tree: list[tuple[int, int]]) -> float:
    """Tree weight from the link CSR (no dense views).

    Weights equal mean link power bitwise (the 0.5·(m + mᵀ)
    symmetrization is the identity on the hashed channel); the sum is
    sequential in edge order, like :func:`~repro.spanningtree.mst.
    tree_weight` over the dense matrix.
    """
    us = np.fromiter((u for u, _ in tree), dtype=np.int64, count=len(tree))
    vs = np.fromiter((v for _, v in tree), dtype=np.int64, count=len(tree))
    if us.size == 0:
        return 0.0
    return float(sum(net.sparse_budget.edge_power_lookup(us, vs).tolist()))


class FSTSimulation:
    """Run the FST baseline on a prepared :class:`D2DNetwork`.

    ``obs`` follows the same convention as
    :class:`~repro.core.st.STSimulation`: explicit bundle, else the
    ambient :func:`repro.obs.activate` bundle, else a fresh private one.
    """

    def __init__(
        self,
        network: D2DNetwork,
        obs: Observability | None = None,
        *,
        invariants: InvariantChecker | None = None,
        phase_hook: PhaseHook | None = None,
    ) -> None:
        self.network = network
        self.config: PaperConfig = network.config
        self.obs = obs if obs is not None else (get_active() or Observability())
        self.invariants = invariants
        #: forwarded to the mesh-sync kernel (conformance capture)
        self.phase_hook = phase_hook
        self.prc = LinearPRC.from_dissipation(
            self.config.dissipation, self.config.epsilon
        )

    def run(self) -> RunResult:
        cfg = self.config
        net = self.network
        obs = self.obs
        # same contract as STSimulation: a disabled bundle hands the
        # kernels obs=None so the hot loops skip instrumentation entirely
        kobs = obs if obs.enabled else None
        bus = obs.bus
        plan = FaultPlan.from_config(cfg)
        budget = net.sparse_budget
        kernel = SparsePulseSyncKernel(
            budget.link_indptr,
            budget.link_indices,
            budget.link_power_dbm,
            self.prc,
            period_ms=cfg.period_ms,
            threshold_dbm=cfg.threshold_dbm,
            refractory_ms=cfg.refractory_ms,
            sync_window_ms=cfg.sync_window_ms,
            fading=budget.fading,
            collision_policy=cfg.collision_policy,
        )
        # FST's deliverable is simultaneous synchronization AND complete
        # mesh neighbour discovery: every device must identity-decode
        # every proximity neighbour at least once (that is what [17]'s
        # protocol produces).  Sync pulses drive the oscillators; one
        # random-slot discovery beacon per device per period ([17]'s
        # random subframe) carries identities.  Convergence is when both
        # finish; whichever finishes first keeps transmitting its
        # per-period traffic until the other catches up.
        with obs.span("fst_run", n=cfg.n_devices, seed=cfg.seed):
            with obs.span("mesh_sync"):
                sync = kernel.run(
                    net.streams.stream("fst-sync"),
                    max_time_ms=cfg.max_time_ms,
                    obs=kobs,
                    obs_labels={"algorithm": "fst", "stage": "sync"},
                    faults=plan,
                    invariants=self.invariants,
                    phase_hook=self.phase_hook,
                )
            with obs.span("discovery"):
                max_periods = max(1, int(cfg.max_time_ms / cfg.period_ms))
                # every proximity link with margin to spare, on the
                # radio-edge axis
                required_edges = budget.edge_is_link & (
                    budget.power_dbm
                    >= cfg.threshold_dbm + cfg.discovery_margin_db
                )
                beacons = SparseBeaconDiscovery(
                    budget,
                    threshold_dbm=cfg.threshold_dbm,
                    period_slots=cfg.period_slots,
                    slot_ms=cfg.slot_ms,
                    preambles=cfg.beacon_preambles,
                ).run(
                    net.streams.stream("fst-beacons"),
                    required=required_edges,
                    max_periods=max_periods,
                    obs=kobs,
                    obs_labels={"algorithm": "fst", "stage": "discovery"},
                    faults=plan,
                    invariants=self.invariants,
                )

            time_ms = max(sync.time_ms, beacons.time_ms)
            converged = sync.converged and beacons.complete
            # keep-alive pulses while waiting for the slower of the two goals
            lag_ms = max(0.0, time_ms - sync.time_ms)
            keepalive = int(cfg.n_devices * (lag_ms / cfg.period_ms))

            with obs.span("stitch"):
                # graceful degradation: the basic firefly tree is
                # assembled over the survivors only
                alive = None
                if plan is not None:
                    dead_final = plan.dead_by(time_ms)
                    if dead_final.any():
                        alive = ~dead_final
                forest = heavy_edge_forest_csr(budget, node_mask=alive)
                tree, stitches = stitch_forest_csr(
                    forest, budget, node_mask=alive
                )
            stitch_messages = 2 * stitches  # one RACH2 handshake per stitch
            if bus is not None:
                alive_n = (
                    int(alive.sum()) if alive is not None else cfg.n_devices
                )
                bus.publish(
                    "fragments",
                    time_ms,
                    {"algorithm": "fst"},
                    # components of a forest: nodes minus edges
                    count=max(1, alive_n - len(tree)),
                    largest=alive_n,
                    stitches=stitches,
                )

            # single accounting path: registry counters and the breakdown
            # derive from one bill (see Observability.account_messages)
            breakdown = obs.account_messages(
                "fst",
                {
                    "sync_pulse": (sync.messages, "rach1"),
                    "keep_alive": (keepalive, "rach1"),
                    "discovery": (beacons.messages, "rach1"),
                    "stitch": (stitch_messages, "rach2"),
                },
            )
        return RunResult(
            algorithm="fst",
            n_devices=cfg.n_devices,
            seed=cfg.seed,
            converged=converged,
            time_ms=time_ms,
            messages=sum(breakdown.values()),
            message_breakdown=breakdown,
            tree_edges=tree,
            metrics=obs.metrics.snapshot(),
            extra={
                "fires": sync.fires,
                "instants": sync.instants,
                "final_spread_ms": sync.final_spread_ms,
                "sync_time_ms": sync.time_ms,
                "discovery_time_ms": beacons.time_ms,
                "discovery_periods": beacons.periods,
                "missing_pairs": beacons.missing_pairs,
                "tree_weight": _tree_weight_for(net, tree),
                "forest_components_stitched": stitches,
                **(
                    {
                        "crashed": int(dead_final.sum())
                        if plan is not None and alive is not None
                        else 0,
                        "discovery_retries": beacons.retries,
                        "faults_injected": beacons.faults_injected,
                    }
                    if plan is not None
                    else {}
                ),
            },
        )
