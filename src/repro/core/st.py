"""ST — the paper's proposed distributed firefly spanning-tree algorithm.

Composition of Algorithms 1–3 over the RSSI-weighted proximity graph:

1. **Discovery** (Algorithm 1 lines 1–5): every device beacons PSs on
   RACH1 for ``discovery_periods`` oscillator periods, filling neighbour
   tables with RSSI weights.  Singleton fragments are trivially synced.
2. **Fragment growth** (Algorithm 1 lines 6–12 + Algorithm 2): Borůvka
   phases over maximum PS-strength edges.  Each phase a fragment
   convergecasts local candidates to its head, the head announces the
   MWOE, and ``H_Connect`` performs the RACH2 handshake over the chosen
   edge; the smaller fragment then *adopts the larger fragment's phase*
   via a RACH2 alignment wave down its own subtree (head election per the
   paper: "choose Sv.head from highest number of node's tree").
   Fragments work in parallel, so a phase lasts as long as its slowest
   fragment (convergecast + broadcast + handshake + alignment wave, one
   hop per slot).  Throughout construction every device keeps firing its
   RACH1 keep-alive once per period (Algorithm 1 line 5's ``F_F_A``).
3. **Final trim** (Algorithm 3 over the finished tree): alignment waves
   leave residual per-hop quantization offsets, so a short pulse-coupled
   run over the tree edges tightens the network into the sync window —
   this is a genuine :class:`~repro.core.pulsesync.SparsePulseSyncKernel` run
   seeded with the residual spread.

Timing model: control actions advance one hop per 1 ms slot (RACH
response time at LTE granularity); all per-fragment work in a phase is
concurrent.  Message accounting is per transmission, split by kind.
"""

from __future__ import annotations

import numpy as np

from repro.core.beacon import SparseBeaconDiscovery, top_k_required_csr
from repro.core.config import PaperConfig
from repro.core.fst import _tree_weight_for
from repro.core.network import D2DNetwork
from repro.core.pulsesync import (
    PhaseHook,
    PulseSyncResult,
    SparsePulseSyncKernel,
)
from repro.core.replay import ReplayLedger
from repro.core.results import RunResult
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.obs import Observability, get_active
from repro.oscillator.prc import LinearPRC
from repro.spanningtree.boruvka import distributed_boruvka_csr
from repro.spanningtree.ghs import distributed_ghs
from repro.spanningtree.repair import repair_after_failure_csr

#: Slots for one H_Connect RACH2 exchange (broadcast + acknowledgement).
HANDSHAKE_SLOTS = 2


#: Bucket bounds for fragment sizes along the Borůvka growth.
FRAGMENT_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


class STSimulation:
    """Run the proposed ST algorithm on a prepared :class:`D2DNetwork`.

    Parameters
    ----------
    network:
        The prepared topology/channel.
    obs:
        Observability bundle to record into.  Defaults to the ambient
        bundle installed with :func:`repro.obs.activate` (so ``repro
        profile`` aggregates across runs), else a fresh private bundle —
        either way the returned :class:`RunResult` carries a metrics
        snapshot, and ``message_breakdown`` is derived from the registry
        (single accounting path).
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
        #: forwarded to the trim kernel (conformance phase-round capture)
        self.phase_hook = phase_hook
        self.prc = LinearPRC.from_dissipation(
            self.config.dissipation, self.config.epsilon
        )

    # ------------------------------------------------------------------
    def _repair_tree(
        self, tree_edges: list[tuple[int, int]], dead_mask: np.ndarray
    ) -> tuple[list[tuple[int, int]], bool, int]:
        """Repair the tree around crashed devices; ``(edges, ok, msgs)``."""
        rep = repair_after_failure_csr(
            tree_edges, np.flatnonzero(dead_mask), self.network.sparse_budget
        )
        return rep.tree_edges, rep.repaired, rep.messages

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        cfg = self.config
        net = self.network
        n = cfg.n_devices
        obs = self.obs
        # a disabled bundle passes no obs down to the radio loops at all,
        # so they run their true zero-instrumentation path; driver-level
        # accounting (bills, fragment gauges) stays live either way
        kobs = obs if obs.enabled else None
        bus = obs.bus

        with obs.span("st_run", n=n, seed=cfg.seed):
            # ---- 1. discovery window ------------------------------------
            # ST only needs each device to decode its heaviest detectable
            # neighbour (the Borůvka seed edge); heavy edges are strong, so
            # they win the capture race quickly even in dense deployments.
            # A floor of ``discovery_periods`` beacon periods is always paid.
            budget = net.sparse_budget
            plan = FaultPlan.from_config(cfg)
            max_periods = max(1, int(cfg.max_time_ms / cfg.period_ms))
            with obs.span("discovery"):
                disc = SparseBeaconDiscovery(
                    budget,
                    threshold_dbm=cfg.threshold_dbm,
                    period_slots=cfg.period_slots,
                    slot_ms=cfg.slot_ms,
                    preambles=cfg.beacon_preambles,
                ).run(
                    net.streams.stream("st-beacons"),
                    required=top_k_required_csr(budget, k=1),
                    max_periods=max_periods,
                    obs=kobs,
                    obs_labels={"algorithm": "st", "stage": "discovery"},
                    faults=plan,
                )
            discovery_periods = max(disc.periods, cfg.discovery_periods)
            discovery_ms = discovery_periods * cfg.period_ms
            # actual beacon transmissions (backoff/crash silence included)
            # plus the always-paid floor; without faults this equals the
            # historical n * discovery_periods exactly
            discovery_msgs = disc.messages + n * max(
                0, cfg.discovery_periods - disc.periods
            )

            # ---- 2. fragment construction with timing replay ------------
            # (merge rule per config: plain Borůvka or level-based GHS; both
            # produce per-phase chosen-edge records the replay consumes)
            with obs.span("construction", merge_rule=cfg.merge_rule):
                with obs.span("merge_schedule"):
                    if cfg.merge_rule == "ghs":
                        # GHS runs on the dense views (one-off densify)
                        boruvka = distributed_ghs(net.weights, net.adjacency)
                    else:
                        # link weights ARE the symmetrized PS weights
                        boruvka = distributed_boruvka_csr(
                            n,
                            budget.link_indptr,
                            budget.link_indices,
                            budget.link_power_dbm,
                        )
                # the replay ledger answers the size/diameter queries the
                # timing model needs with O(1) oracle distances over the
                # final forest
                ledger = ReplayLedger(n, boruvka.edges)
                handshake_msgs = 0
                align_msgs = 0
                construction_slots = 0
                max_wave_depth = 0
                frag_gauge = obs.metrics.gauge(
                    "fragments_active",
                    help="live fragments after each Borůvka phase",
                    unit="fragments",
                )
                frag_hist = obs.metrics.histogram(
                    "fragment_size",
                    buckets=FRAGMENT_SIZE_BUCKETS,
                    help="fragment sizes observed after each Borůvka phase",
                    unit="devices",
                )

                for k, phase in enumerate(boruvka.phases):
                    with obs.span(
                        "boruvka_phase", phase=k, merges=len(phase.chosen_edges)
                    ):
                        phase_slots = 0
                        for u, v in phase.chosen_edges:
                            size_u = ledger.size_of(u)
                            size_v = ledger.size_of(v)
                            diam_u = ledger.diameter_of(u)
                            diam_v = ledger.diameter_of(v)
                            # control round: convergecast up + announce down
                            # the larger side, then the RACH2 handshake (u, v)
                            control = 2 * max(diam_u, diam_v) + HANDSHAKE_SLOTS
                            handshake_msgs += 2
                            # the smaller fragment re-phases to the larger
                            # one's clock
                            if size_u >= size_v:
                                loser_size, loser_diam = size_v, diam_v
                            else:
                                loser_size, loser_diam = size_u, diam_u
                            align_msgs += loser_size
                            max_wave_depth = max(max_wave_depth, loser_diam + 1)
                            phase_slots = max(
                                phase_slots, control + loser_diam + 1
                            )

                            ledger.merge(u, v)
                            if obs.trace is not None:
                                obs.trace.emit(
                                    discovery_ms
                                    + (construction_slots + phase_slots)
                                    * cfg.slot_ms,
                                    "merge",
                                    u=u,
                                    v=v,
                                    phase=k,
                                    algorithm="st",
                                )
                        construction_slots += phase_slots

                        sizes = ledger.sizes()
                        frag_gauge.set(len(sizes), algorithm="st")
                        for size in sizes:
                            frag_hist.observe(size, algorithm="st", phase=k)
                        obs.probes.record(
                            discovery_ms + construction_slots * cfg.slot_ms,
                            "fragments",
                            force=True,
                            phase=k,
                            count=len(sizes),
                            largest=max(sizes),
                        )
                        if bus is not None:
                            bus.publish(
                                "fragments",
                                discovery_ms + construction_slots * cfg.slot_ms,
                                {"algorithm": "st"},
                                phase=k,
                                count=len(sizes),
                                largest=max(sizes),
                                merges=len(phase.chosen_edges),
                            )

            construction_ms = construction_slots * cfg.slot_ms
            keepalive_msgs = int(n * (construction_ms / cfg.period_ms))
            # Algorithm 1 line 5: every phase each fragment runs its FFA
            # ranking/keep-alive rounds on RACH1 (all fragments together
            # cover all n devices); these ride alongside the control traffic.
            ffa_msgs = cfg.ffa_rounds_per_phase * n * boruvka.phase_count

            # ---- 3. final trim: PCO run over the tree -------------------
            with obs.span("trim"):
                tree_edges = ledger.all_tree_edges()
                converged_tree = ledger.count == 1
                start_ms = discovery_ms + construction_ms

                # graceful degradation: devices that crashed before the
                # trim are cut out of the tree and the survivors re-merge
                # via the seeded repair protocol instead of aborting
                repair_msgs = 0
                repairs_done = 0
                crashed_before = 0
                active_mask = None
                if plan is not None:
                    dead_now = plan.dead_by(start_ms)
                    crashed_before = int(dead_now.sum())
                    active_mask = ~dead_now
                    if dead_now.any() and active_mask.any():
                        with obs.span("repair", crashed=crashed_before):
                            tree_edges, converged_tree, msgs = (
                                self._repair_tree(tree_edges, dead_now)
                            )
                            repair_msgs += msgs
                            repairs_done += 1
                    elif dead_now.any():
                        converged_tree = False

                # Residual spread after alignment: the RACH2 wave carries the
                # head's clock and every relay compensates the known 1-slot
                # hop delay, so the residual is bounded by the per-hop timing
                # jitter (~1 slot) plus the final merge's handshake slot —
                # independent of tree depth (MEMFIS-style clock adoption).
                residual_slots = 2
                window = min(0.5, residual_slots * cfg.slot_ms / cfg.period_ms)
                phase_rng = net.streams.stream("st-trim-phases")
                base = float(phase_rng.uniform(0.0, 1.0 - window))
                initial_phases = base + phase_rng.uniform(0.0, window, size=n)

                kernel_opts = dict(
                    period_ms=cfg.period_ms,
                    threshold_dbm=cfg.threshold_dbm,
                    refractory_ms=cfg.refractory_ms,
                    sync_window_ms=cfg.sync_window_ms,
                    collision_policy=cfg.collision_policy,
                )
                # both directions of each tree edge, powers looked up
                # from the radio CSR — no (n, n) allocation
                eu = np.fromiter(
                    (u for u, _ in tree_edges),
                    dtype=np.int64,
                    count=len(tree_edges),
                )
                ev = np.fromiter(
                    (v for _, v in tree_edges),
                    dtype=np.int64,
                    count=len(tree_edges),
                )
                tx = np.concatenate((eu, ev))
                rx = np.concatenate((ev, eu))
                kernel = SparsePulseSyncKernel.from_edges(
                    n,
                    tx,
                    rx,
                    budget.edge_power_lookup(tx, rx),
                    self.prc,
                    fading=budget.fading,
                    **kernel_opts,
                )
                if active_mask is not None and not active_mask.any():
                    # total extinction before the trim: nothing to sync
                    trim = PulseSyncResult(
                        converged=False,
                        time_ms=start_ms,
                        messages=0,
                        fires=0,
                        instants=0,
                        final_spread_ms=float("inf"),
                    )
                else:
                    trim = kernel.run(
                        net.streams.stream("st-trim"),
                        initial_phases=np.clip(initial_phases, 0.0, 1.0 - 1e-9),
                        start_time_ms=start_ms,
                        max_time_ms=max(cfg.max_time_ms - start_ms, cfg.period_ms),
                        active=active_mask,
                        obs=kobs,
                        obs_labels={"algorithm": "st", "stage": "trim"},
                        faults=plan,
                        invariants=self.invariants,
                        phase_hook=self.phase_hook,
                    )

                # devices that crashed *during* the trim also get cut out
                # and the survivors' tree repaired (late repair pass)
                dead_final = None
                if plan is not None:
                    dead_final = plan.dead_by(trim.time_ms)
                    late = dead_final & ~dead_now
                    if late.any() and not dead_final.all():
                        with obs.span("repair", crashed=int(late.sum())):
                            tree_edges, converged_tree, msgs = (
                                self._repair_tree(tree_edges, dead_final)
                            )
                            repair_msgs += msgs
                            repairs_done += 1
                    elif late.any():
                        converged_tree = False

            time_ms = trim.time_ms
            converged = converged_tree and trim.converged
            if plan is not None:
                if crashed_before:
                    obs.metrics.counter(
                        "faults_injected_total",
                        help="fault events injected by the active FaultPlan",
                        unit="events",
                    ).inc(crashed_before, kind="crash", algorithm="st")
                if repairs_done:
                    obs.metrics.counter(
                        "repairs_total",
                        help="spanning-tree repair passes after crashes",
                        unit="repairs",
                    ).inc(repairs_done, algorithm="st")

            # message accounting: one bill, recorded into the metrics
            # registry AND returned as the breakdown — a single source of
            # truth for Fig. 4 totals and observability counters
            bill: dict[str, tuple[int, str]] = {
                "discovery": (discovery_msgs, "rach1"),
                "keep_alive": (keepalive_msgs, "rach1"),
                "ffa_rounds": (ffa_msgs, "rach1"),
                "trim_sync": (trim.messages, "rach1"),
                "handshake": (handshake_msgs, "rach2"),
                "alignment": (align_msgs, "rach2"),
            }
            if plan is not None:
                bill["repair"] = (repair_msgs, "rach2")
            for kind, count in boruvka.counter.as_dict().items():
                bill[f"boruvka_{kind}"] = (count, "rach2")
            breakdown = obs.account_messages("st", bill)
            messages = sum(breakdown.values())

        return RunResult(
            algorithm="st",
            n_devices=n,
            seed=cfg.seed,
            converged=converged,
            time_ms=time_ms,
            messages=messages,
            message_breakdown=breakdown,
            tree_edges=tree_edges,
            extra={
                "phases": boruvka.phase_count,
                "construction_ms": construction_ms,
                "trim_ms": trim.time_ms - start_ms,
                "trim_fires": trim.fires,
                "tree_weight": _tree_weight_for(net, tree_edges),
                "final_spread_ms": trim.final_spread_ms,
                "max_wave_depth": max_wave_depth,
                **(
                    {
                        "repairs": repairs_done,
                        "crashed": int(dead_final.sum()),
                        "discovery_retries": disc.retries,
                        "faults_injected": disc.faults_injected,
                    }
                    if plan is not None
                    else {}
                ),
            },
            metrics=obs.metrics.snapshot(),
        )
