"""Device churn: joins and failures against a live spanning tree.

Real D2D populations churn (the paper's §VI "realistic scenarios"): users
arrive, leave, and die mid-protocol.  :class:`ChurnSession` maintains the
heavy-edge tree of the *active* population incrementally:

* **join** — the newcomer beacons for a discovery window, then attaches
  over its heaviest link to an active device (one RACH2 handshake).  This
  is O(1) messages but *greedy*: it does not re-optimize the global tree,
  so the session tracks how far the incremental tree drifts from the
  maximum-spanning-tree oracle.
* **fail** — the tree is repaired with
  :func:`repro.spanningtree.repair.repair_after_failure_csr`: surviving
  fragments are kept and only the re-merging phases are paid.
* **rebuild** — on demand, a full Borůvka run restores optimality; the
  session reports the message bill either way, so the repair-vs-rebuild
  trade-off is measurable.

The session works entirely on the link CSR (filtered per the active set,
no dense views), with the maximum-spanning-tree oracle computed by
Borůvka — on distinct weights the Borůvka tree *is* the maximum spanning
tree, so the oracle matches a Kruskal result edge for edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fst import _tree_weight_for
from repro.core.network import D2DNetwork
from repro.obs import active_span
from repro.radio.sparse_link import csr_subgraph
from repro.spanningtree.boruvka import distributed_boruvka_csr
from repro.spanningtree.repair import repair_after_failure_csr

#: Messages a join costs: one discovery beacon round + RACH2 handshake.
JOIN_HANDSHAKE_MSGS = 2


@dataclass(frozen=True)
class ChurnEvent:
    """One join/fail/rebuild and its cost."""

    kind: str
    device: int
    messages: int
    succeeded: bool
    active_count: int
    #: current tree weight / oracle max-ST weight on the active subgraph
    #: (≥ 1.0 since weights are negative dBm sums; 1.0 = optimal)
    optimality_ratio: float


class ChurnSession:
    """Incremental tree maintenance over an (in)active device population.

    Parameters
    ----------
    network:
        The full device universe (positions/weights fixed); devices may be
        active or not.
    initially_active:
        Device ids active at start (default: all).  The initial tree is
        built with a full Borůvka run over the active subgraph.
    track_optimality:
        When True (default) every event runs the maximum-spanning-tree
        oracle on the active subgraph and records the optimality ratio.
        The oracle is a full Borůvka run — O(E) per event — so
        long-running hosts that churn continuously (the steady-state
        discovery service) disable it; events then carry
        ``optimality_ratio = nan``.
    repair:
        Failure-repair strategy.  ``"optimal"`` (default) re-merges
        surviving fragments with a seeded Borůvka run over the full
        active link graph — O(E) per failure, optimal result.
        ``"greedy"`` reattaches each orphaned subtree over its heaviest
        outgoing link, mirroring the greedy join: the smaller
        components around the hole are discovered by balanced BFS (so a
        leaf failure costs O(degree), not O(n)) and each pays one
        discovery scan plus a RACH2 handshake.  Greedy repairs drift
        from the oracle exactly like greedy joins do — the trade
        :meth:`rebuild` exists to pay down — but keep per-event cost
        proportional to the damage, which is what lets the steady-state
        service churn a 100k-UE world continuously.
    """

    def __init__(
        self,
        network: D2DNetwork,
        initially_active: set[int] | None = None,
        *,
        track_optimality: bool = True,
        repair: str = "optimal",
    ) -> None:
        if repair not in ("optimal", "greedy"):
            raise ValueError(
                f"repair must be 'optimal' or 'greedy', got {repair!r}"
            )
        self.network = network
        self.track_optimality = track_optimality
        self.repair_mode = repair
        n = network.n
        if initially_active is None:
            initially_active = set(range(n))
        if not initially_active:
            raise ValueError("need at least one initially active device")
        if not all(0 <= d < n for d in initially_active):
            raise ValueError("active ids out of range")
        self.active: set[int] = set(initially_active)
        self.events: list[ChurnEvent] = []
        self.tree_edges: list[tuple[int, int]] = []
        #: tree adjacency and edge->position index kept in lockstep with
        #: ``tree_edges`` so greedy repairs can walk the forest and drop
        #: incident edges without scanning the edge list
        self._tree_adj: dict[int, set[int]] = {}
        self._edge_pos: dict[tuple[int, int], int] = {}
        self._active_np = np.zeros(n, dtype=bool)
        self._active_np[list(self.active)] = True
        self._rebuild(initial=True)

    # ------------------------------------------------------------------
    def _active_array(self) -> np.ndarray:
        """Boolean active mask, maintained incrementally.

        Callers must treat the returned array as read-only (copy before
        mutating) — churning at scale cannot afford an O(n) rebuild per
        event.
        """
        return self._active_np

    def _filtered_link_csr(self):
        """Active-subgraph link CSR (never densifies; masking the sorted
        link CSR keeps it sorted, so no sort either)."""
        budget = self.network.sparse_budget
        act = self._active_array()
        rows = budget.link_row_ids
        nbr = budget.link_indices
        return csr_subgraph(
            self.network.n, rows, nbr, act[rows] & act[nbr],
            budget.link_power_dbm,
        )

    def _optimality_ratio(self) -> float:
        if not self.track_optimality:
            return float("nan")
        if len(self.active) < 2:
            return 1.0
        # On distinct weights the Borůvka tree is the maximum spanning
        # tree, so a CSR run serves as the oracle.
        indptr, indices, (w_e,) = self._filtered_link_csr()
        oracle = distributed_boruvka_csr(self.network.n, indptr, indices, w_e)
        oracle_w = _tree_weight_for(self.network, oracle.edges)
        mine = _tree_weight_for(self.network, self.tree_edges)
        if oracle_w == 0.0:
            return 1.0
        # weights are negative (dBm sums): mine/oracle >= 1 means heavier
        # total loss, i.e. worse; 1.0 is optimal
        return mine / oracle_w

    def _record(self, kind: str, device: int, messages: int, ok: bool) -> ChurnEvent:
        event = ChurnEvent(
            kind=kind,
            device=device,
            messages=messages,
            succeeded=ok,
            active_count=len(self.active),
            optimality_ratio=self._optimality_ratio(),
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    def join(self, device: int) -> ChurnEvent:
        """Activate ``device`` and attach it over its heaviest active link."""
        with active_span("churn.join", device=device):
            if device in self.active:
                raise ValueError(f"device {device} is already active")
            if not 0 <= device < self.network.n:
                raise ValueError(f"device {device} out of range")
            budget = self.network.sparse_budget
            lo = int(budget.link_indptr[device])
            hi = int(budget.link_indptr[device + 1])
            nbr = budget.link_indices[lo:hi]
            # only links to currently active devices count; neighbours are
            # sorted by id, so argmax ties break to the lowest id
            act = self._active_array()
            w = np.where(act[nbr], budget.link_power_dbm[lo:hi], -np.inf)
            if w.size:
                pos = int(np.argmax(w))
                best = int(nbr[pos])
                ok = bool(np.isfinite(w[pos]))
            else:
                best = -1
                ok = False
            messages = self.network.config.discovery_periods + JOIN_HANDSHAKE_MSGS
            self.active.add(device)
            self._active_np[device] = True
            if ok:
                self._edge_add((min(device, best), max(device, best)))
            return self._record("join", device, messages, ok)

    def fail(self, device: int) -> ChurnEvent:
        """Deactivate ``device`` and repair the tree around the hole."""
        with active_span("churn.fail", device=device):
            if device not in self.active:
                raise ValueError(f"device {device} is not active")
            self.active.discard(device)
            self._active_np[device] = False
            if self.repair_mode == "greedy":
                messages, ok = self._fail_greedy(device)
                return self._record("fail", device, messages, ok)
            inactive = {i for i in range(self.network.n) if i not in self.active}
            result = repair_after_failure_csr(
                self.tree_edges, inactive | {device}, self.network.sparse_budget
            )
            self.tree_edges = result.tree_edges
            self._rebuild_tree_adj()
            return self._record("fail", device, result.messages, result.repaired)

    # -- greedy repair --------------------------------------------------
    def _fail_greedy(self, device: int) -> tuple[int, bool]:
        """Local repair: reattach orphaned subtrees over heaviest links.

        Cost is proportional to the damage: the failed node's subtrees
        (all but the largest, found by balanced BFS over the tree
        adjacency) each pay one discovery scan of their members plus a
        RACH2 handshake.  Returns ``(messages, repaired)``.
        """
        seeds = sorted(self._tree_adj.pop(device, ()))
        for s in seeds:
            self._tree_adj[s].discard(device)
            self._edge_remove((min(device, s), max(device, s)))
        if len(seeds) <= 1:
            # leaf or isolated node: the forest is undamaged
            return 0, True
        orphans = self._orphan_components(seeds)
        messages = 0
        ok = True
        # targets: active devices outside every orphan (the unexplored
        # remainder and any pre-existing fragments); successfully
        # reattached orphans rejoin the target pool for later ones
        allowed = self._active_array().copy()
        for comp in orphans:
            allowed[comp] = False
        for comp in sorted(orphans, key=lambda c: c[0]):
            messages += len(comp) + JOIN_HANDSHAKE_MSGS
            pair = self._heaviest_outgoing(comp, allowed)
            if pair is None:
                ok = False
                continue
            u, v = pair
            self._edge_add((min(u, v), max(u, v)))
            allowed[comp] = True
        return messages, ok

    def _orphan_components(self, seeds: list[int]) -> list[list[int]]:
        """All-but-largest subtrees around a removed node, members sorted.

        Balanced BFS: always expand the currently smallest component, so
        the largest subtree is never fully traversed — it is whichever
        component is still unfinished when every other one has exhausted
        its frontier (ties broken to the lowest seed for determinism).
        """
        from collections import deque

        members: list[list[int]] = [[s] for s in seeds]
        frontiers = [deque([s]) for s in seeds]
        owner = {s: i for i, s in enumerate(seeds)}
        unfinished = set(range(len(seeds)))
        finished: list[int] = []
        while len(unfinished) > 1:
            idx = min(unfinished, key=lambda i: (len(members[i]), i))
            if not frontiers[idx]:
                unfinished.discard(idx)
                finished.append(idx)
                continue
            node = frontiers[idx].popleft()
            for nxt in sorted(self._tree_adj.get(node, ())):
                if nxt not in owner:
                    owner[nxt] = idx
                    members[idx].append(nxt)
                    frontiers[idx].append(nxt)
        return [sorted(members[i]) for i in sorted(finished)]

    def _heaviest_outgoing(
        self, comp: list[int], allowed: np.ndarray
    ) -> tuple[int, int] | None:
        """Heaviest link from ``comp`` into the allowed set, or None.

        Ties break to the lowest member id then lowest target id (members
        are sorted and argmax returns the first maximum).
        """
        budget = self.network.sparse_budget
        best_w = -np.inf
        best: tuple[int, int] | None = None
        for m in comp:
            lo = int(budget.link_indptr[m])
            hi = int(budget.link_indptr[m + 1])
            if lo == hi:
                continue
            nbr = budget.link_indices[lo:hi]
            w = np.where(allowed[nbr], budget.link_power_dbm[lo:hi], -np.inf)
            pos = int(np.argmax(w))
            if w[pos] > best_w:
                best_w = float(w[pos])
                best = (m, int(nbr[pos]))
        if best is None or not np.isfinite(best_w):
            return None
        return best

    def _edge_add(self, edge: tuple[int, int]) -> None:
        u, v = edge
        self._edge_pos[edge] = len(self.tree_edges)
        self.tree_edges.append(edge)
        self._tree_adj.setdefault(u, set()).add(v)
        self._tree_adj.setdefault(v, set()).add(u)

    def _edge_remove(self, edge: tuple[int, int]) -> None:
        """O(1) removal: swap the last edge into the vacated slot."""
        pos = self._edge_pos.pop(edge)
        last = self.tree_edges.pop()
        if pos < len(self.tree_edges):
            self.tree_edges[pos] = last
            self._edge_pos[last] = pos

    def _rebuild_tree_adj(self) -> None:
        adj: dict[int, set[int]] = {}
        pos: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(self.tree_edges):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
            pos[(u, v)] = i
        self._tree_adj = adj
        self._edge_pos = pos

    def rebuild(self) -> ChurnEvent:
        """Full Borůvka rebuild on the active subgraph (restores optimality)."""
        messages = self._rebuild(initial=False)
        return self._record("rebuild", -1, messages, True)

    def _rebuild(self, *, initial: bool) -> int:
        indptr, indices, (w_e,) = self._filtered_link_csr()
        result = distributed_boruvka_csr(self.network.n, indptr, indices, w_e)
        # keep only edges among active devices (inactive are isolated)
        self.tree_edges = [
            e for e in result.edges if e[0] in self.active and e[1] in self.active
        ]
        self._rebuild_tree_adj()
        return result.counter.total

    # ------------------------------------------------------------------
    @property
    def is_spanning(self) -> bool:
        """Does the current tree span the active devices?"""
        if len(self.active) <= 1:
            return True
        from repro.spanningtree.unionfind import UnionFind

        uf = UnionFind(self.network.n)
        for u, v in self.tree_edges:
            uf.union(u, v)
        roots = {uf.find(d) for d in self.active}
        return len(roots) == 1
