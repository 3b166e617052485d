"""Seed-for-seed parity: the whole-array batch kernels vs references.

The simulations run whole-array numpy kernels: segment-reduction
required-edge selection, a vectorized Borůvka phase driver with
``bincount`` accounting, and O(1) fragment diameters from a tree
distance oracle.  Each is checked here against a plain per-node or
per-fragment reference that computes the same integers the slow way,
and the end-to-end runs against the node-level message-passing protocol
(:mod:`repro.protocol.rounds`) and the dense sync kernel.  Channel draws
and fault decisions stay counter-hashed, so agreement is exact.  These
tests are the contract.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.core.beacon import top_k_required_csr
from repro.core.config import PaperConfig
from repro.core.fst import FSTSimulation
from repro.core.network import D2DNetwork
from repro.core.replay import ReplayLedger, TreeDistanceOracle
from repro.core.st import STSimulation
from repro.faults import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.protocol.rounds import MessagePassingST
from repro.spanningtree.boruvka import distributed_boruvka_csr
from repro.spanningtree.fragment import FragmentSet
from tests.references import dense_mesh_sync, never_densified

FAULTS = (
    "beacon_loss=0.05,collision=0.1,crash=0.15,stall=0.05,"
    "ps_loss=0.01,drift=0.001,crash_window_ms=3000,stall_window_ms=3000"
)


def _budget(n: int, seed: int):
    return D2DNetwork(PaperConfig(n_devices=n, seed=seed)).sparse_budget


def _reference_boruvka(n, indptr, indices, weight):
    """Per-node / per-fragment Python Borůvka: ``(edges, bill, phases)``."""
    frags = FragmentSet(n)
    bill = {"test": 0, "report": 0, "merge_announce": 0, "connect": 0}
    phases = []
    while frags.count > 1:
        best: dict[int, tuple] = {}  # fragment root -> (key, u, v)
        boundary = 0
        for u in range(n):
            cands = [
                (float(weight[e]), int(indices[e]))
                for e in range(indptr[u], indptr[u + 1])
                if frags.fragment_of(int(indices[e])) != frags.fragment_of(u)
            ]
            if not cands:
                continue
            boundary += 1
            w, v = max(cands, key=lambda c: (c[0], -c[1]))
            key = (w, -(min(u, v) * n + max(u, v)))
            root = frags.fragment_of(u)
            if root not in best or key > best[root][0]:
                best[root] = (key, u, v)
        if not best:
            break
        bill["test"] += boundary
        for frag in frags.fragments():
            if frags.fragment_of(frag.head) in best:
                bill["report"] += frag.size
                bill["merge_announce"] += frag.size - 1
                bill["connect"] += 1
        chosen = []
        for _, u, v in sorted(best.values(), key=lambda b: b[0], reverse=True):
            if frags.merge(u, v):
                chosen.append((min(u, v), max(u, v)))
        phases.append(tuple(sorted(chosen)))
    return frags.all_tree_edges(), bill, phases


def _double_bfs_diameter(start: int, adj: dict[int, list[int]]) -> int:
    def farthest(src: int) -> tuple[int, int]:
        seen = {src: 0}
        queue = deque([src])
        far = (src, 0)
        while queue:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen[v] = seen[u] + 1
                    far = max(far, (v, seen[v]), key=lambda f: f[1])
                    queue.append(v)
        return far

    a, _ = farthest(start)
    return farthest(a)[1]


def _protocol_tree(net: D2DNetwork) -> list[tuple[int, int]]:
    """The node-level message-passing protocol's tree on a twin network."""
    twin = D2DNetwork(net.config)
    return sorted(MessagePassingST(twin.weights, twin.adjacency).run().tree_edges)


class TestBackendSelection:
    def test_config_validation(self):
        """One execution path: the selection knobs are gone, not aliased."""
        for knob in ("backend", "sparse_threshold_devices", "batch_threshold_devices"):
            with pytest.raises(TypeError):
                PaperConfig(**{knob: 1024})
        assert not hasattr(PaperConfig(), "resolved_backend")
        net = D2DNetwork(PaperConfig(n_devices=16, seed=1))
        for name in ("backend", "is_sparse", "is_batch", "densified"):
            assert not hasattr(net, name), name


class TestKernelParity:
    def test_boruvka_batch_matches_csr(self):
        sb = _budget(128, seed=2)
        res = distributed_boruvka_csr(
            128, sb.link_indptr, sb.link_indices, sb.link_power_dbm
        )
        edges, bill, phases = _reference_boruvka(
            128, sb.link_indptr, sb.link_indices, sb.link_power_dbm
        )
        assert res.edges == edges
        assert {k: v for k, v in res.counter.as_dict().items() if v} == bill
        assert [p.chosen_edges for p in res.phases] == phases

    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_top_k_required_batch_matches_csr(self, n):
        budget = _budget(n, seed=3)
        for k in (1, 3):
            # reference: a global (receiver, weight desc, id) lexsort
            rx, nbr = budget.link_row_ids, budget.link_indices
            order = np.lexsort((nbr, -budget.link_power_dbm, rx))
            rank = np.arange(order.size) - budget.link_indptr[rx[order]]
            sel = order[rank < k]
            expected = np.zeros(budget.edge_count, dtype=bool)
            expected[budget.edge_position(nbr[sel], rx[sel])] = True
            assert np.array_equal(top_k_required_csr(budget, k=k), expected), k

    def test_distance_oracle_and_ledger_match_bfs(self):
        sb = _budget(64, seed=4)
        res = distributed_boruvka_csr(
            64, sb.link_indptr, sb.link_indices, sb.link_power_dbm
        )
        oracle = TreeDistanceOracle(64, res.edges)
        ledger = ReplayLedger(64, res.edges)
        adj: dict[int, list[int]] = {}
        for u, v in res.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
            ledger.merge(u, v)
            assert oracle.distance(u, v) == 1
            # every mid-replay fragment diameter equals the double BFS
            assert ledger.diameter_of(u) == _double_bfs_diameter(u, adj)
        assert ledger.count == 1
        assert ledger.all_tree_edges() == sorted(
            (min(u, v), max(u, v)) for u, v in res.edges
        )


class TestAlgorithmParity:
    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_st_end_to_end(self, n):
        net = D2DNetwork(PaperConfig(n_devices=n, seed=1))
        run = STSimulation(net, invariants=InvariantChecker()).run()
        assert run.converged
        assert run.tree_edges == _protocol_tree(net)
        assert run.messages == sum(run.message_breakdown.values())
        assert never_densified(net), "ST must never touch dense views"

    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_fst_end_to_end(self, n):
        cfg = PaperConfig(n_devices=n, seed=7)
        net = D2DNetwork(cfg)
        run = FSTSimulation(net, invariants=InvariantChecker()).run()
        assert run.converged
        # the stitched heavy-edge forest is the maximum spanning tree
        assert run.tree_edges == _protocol_tree(net)
        if n <= 128:  # the dense kernel is O(n²) per wave
            sync = dense_mesh_sync(cfg, "fst-sync")
            assert (run.extra["fires"], run.extra["sync_time_ms"]) == (
                sync.fires,
                sync.sync_time_ms,
            )
        assert never_densified(net), "FST must never touch dense views"


class TestFaultParity:
    """An active FaultPlan draws identical faults run after run.

    Fault decisions are counter hashes of event identity; the whole-array
    kernels must reproduce a degraded run bitwise, bill exactly the
    crashes the plan schedules and keep dead devices out of the tree.
    """

    @pytest.mark.parametrize("n", [32, 128, 512])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_st_faulty_end_to_end(self, n, seed):
        if n == 512 and seed == 5:
            pytest.skip("one faulted seed per size is enough at n=512")
        cfg = PaperConfig(n_devices=n, seed=seed, faults=FAULTS)
        a = STSimulation(D2DNetwork(cfg)).run()
        b = STSimulation(D2DNetwork(cfg)).run()
        assert (a.converged, a.time_ms, a.tree_edges) == (
            b.converged,
            b.time_ms,
            b.tree_edges,
        )
        assert a.message_breakdown == b.message_breakdown
        for key in ("repairs", "crashed", "discovery_retries", "faults_injected"):
            assert a.extra[key] == b.extra[key], key
        dead = FaultPlan.from_config(cfg).dead_by(a.time_ms)
        assert a.extra["crashed"] == int(dead.sum())
        assert all(not dead[u] and not dead[v] for u, v in a.tree_edges)

    @pytest.mark.parametrize("n", [32, 128])
    def test_fst_faulty_end_to_end(self, n):
        cfg = PaperConfig(n_devices=n, seed=7, faults=FAULTS)
        a = FSTSimulation(D2DNetwork(cfg)).run()
        b = FSTSimulation(D2DNetwork(cfg)).run()
        assert (a.converged, a.time_ms, a.tree_edges) == (
            b.converged,
            b.time_ms,
            b.tree_edges,
        )
        assert a.message_breakdown == b.message_breakdown
        for key in ("crashed", "discovery_retries", "faults_injected"):
            assert a.extra[key] == b.extra[key], key
        dead = FaultPlan.from_config(cfg).dead_by(a.time_ms)
        assert all(not dead[u] and not dead[v] for u, v in a.tree_edges)

    def test_faulty_batch_run_is_repeatable(self):
        cfg = PaperConfig(n_devices=32, seed=5, faults=FAULTS)
        a = STSimulation(D2DNetwork(cfg)).run()
        b = STSimulation(D2DNetwork(cfg)).run()
        assert (a.time_ms, a.messages, a.tree_edges) == (
            b.time_ms,
            b.messages,
            b.tree_edges,
        )
