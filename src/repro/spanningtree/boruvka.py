"""Synchronous distributed Borůvka on maximum weights (Algorithm 1 core).

Each phase, every fragment finds its Maximum-Weight Outgoing Edge (MWOE)
and connects over it; fragments linked by chosen edges merge.  With
distinct weights this can never create a cycle and finishes in
⌈log₂ n⌉ phases — the source of the paper's O(n log n) message bound.

Message accounting per phase (see :mod:`repro.spanningtree.messages`):

* one ``TEST`` per boundary node (a node with ≥ 1 outgoing edge) — the
  RSSI probe of its heaviest outgoing link;
* one ``REPORT`` per fragment member — the aggregating convergecast of
  local candidates up to the head;
* ``size − 1`` ``MERGE_ANNOUNCE`` per fragment — the head's broadcast of
  the chosen edge down the fragment tree (one transmission per tree edge);
* one ``CONNECT`` per fragment with an MWOE.

Ties are broken by node-id pair so the weight order is total even when
two physical links produce identical RSSI values.

Two entry points share one fully vectorized phase driver
(:func:`_drive_phases`): per-node candidate scans, the per-fragment MWOE
election and the message accounting are array passes (no per-node or
per-fragment Python loops).  :func:`distributed_boruvka_csr` — what the
simulations run — scans a CSR edge list in O(E) per phase;
:func:`distributed_boruvka` scans a dense ``(n, n)`` weight matrix for
the matrix callers (induced multiservice subgraphs, Fig. 2, mobility,
the permutation relation).  Candidate selection is deterministic and
identical in both (ties: higher weight, then lower ``(min, max)`` pair),
so they produce the same phases, edges and message bill.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_active
from repro.spanningtree.fragment import Fragment, FragmentSet
from repro.spanningtree.messages import MessageCounter, MessageKind


@dataclass(frozen=True)
class PhaseRecord:
    """What happened in one Borůvka phase."""

    phase: int
    fragments_before: int
    fragments_after: int
    chosen_edges: tuple[tuple[int, int], ...]
    messages: dict[str, int] = field(default_factory=dict)

    @property
    def merges(self) -> int:
        return self.fragments_before - self.fragments_after


@dataclass
class BoruvkaResult:
    """Outcome of a full distributed Borůvka run."""

    edges: list[tuple[int, int]]
    phases: list[PhaseRecord]
    counter: MessageCounter
    fragments: list[Fragment]

    @property
    def converged(self) -> bool:
        """True when a single spanning fragment remains."""
        return len(self.fragments) == 1

    @property
    def phase_count(self) -> int:
        return len(self.phases)


def _edge_key(w: float, u: int, v: int, n: int) -> tuple[float, int]:
    """Total order on edges: weight first, then a deterministic id pair."""
    a, b = (u, v) if u < v else (v, u)
    return (w, -(a * n + b))


def _default_max_phases(n: int) -> int:
    return 2 * max(1, int(np.ceil(np.log2(max(n, 2))))) + 4


def _fragment_mwoe(
    comp: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    ws: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elect each fragment's MWOE from per-node candidates (vectorized).

    The winner per fragment root maximizes ``(weight, -(min·n + max))`` —
    the same total order :func:`_edge_key` defines.  Returns the winning
    ``(roots, u, v)`` triple arrays.
    """
    roots = comp[us]
    a = np.minimum(us, vs)
    b = np.maximum(us, vs)
    pair_id = a * np.int64(n) + b
    order = np.lexsort((pair_id, -ws, roots))
    r_sorted = roots[order]
    first = np.concatenate(([True], r_sorted[1:] != r_sorted[:-1]))
    sel = order[first]
    return roots[sel], us[sel], vs[sel]


def _drive_phases(
    n: int,
    frags: FragmentSet,
    counter: MessageCounter,
    max_phases: int,
    candidate_fn,
) -> list[PhaseRecord]:
    """The phase driver shared by both entry points.

    ``candidate_fn(comp)`` returns per-node candidates ``(us, vs, ws)``:
    for every node ``u`` with at least one outgoing edge, its heaviest
    one (ties: lowest neighbour id).  ``comp`` maps every node to its
    fragment root; it is maintained incrementally, updated after each
    phase by pointer-jumping a root remap until it reaches a fixpoint
    (one phase's merges can chain, so a root may map through several
    hops).  Accounting is a ``bincount`` over ``comp``: a fragment whose
    root won an MWOE contributes REPORT = size, MERGE_ANNOUNCE = size − 1
    and CONNECT = 1; fragments with no outgoing edge (done, or
    isolated/dead nodes) stay silent.
    """
    obs = get_active()
    phases: list[PhaseRecord] = []
    if frags.count == n:
        comp = np.arange(n, dtype=np.int64)
    else:  # seeded fragments: materialize the union-find state once
        comp = np.fromiter(
            (frags.fragment_of(i) for i in range(n)), dtype=np.int64, count=n
        )
    for phase_idx in range(max_phases):
        if frags.count == 1:
            break
        span = (
            obs.span("mwoe_scan", phase=phase_idx, nodes=n)
            if obs is not None
            else nullcontext()
        )
        with span:
            us, vs, ws = candidate_fn(comp)
        if us.size == 0:
            break  # disconnected: remaining fragments can never merge

        phase_counter = MessageCounter()
        phase_counter.add(MessageKind.TEST, int(us.size))
        fragments_before = frags.count
        roots_sel, u_sel, v_sel = _fragment_mwoe(comp, us, vs, ws, n)
        # _fragment_mwoe returns one winner per distinct root, so the
        # fragments with an MWOE are exactly roots_sel
        sizes_sel = np.bincount(comp, minlength=n)[roots_sel]
        members = int(sizes_sel.sum())
        phase_counter.add(MessageKind.REPORT, members)
        phase_counter.add(MessageKind.MERGE_ANNOUNCE, members - roots_sel.size)
        phase_counter.add(MessageKind.CONNECT, int(roots_sel.size))

        remap = np.arange(n, dtype=np.int64)
        chosen: list[tuple[int, int]] = []
        for u, v in zip(u_sel.tolist(), v_sel.tolist()):
            ru = frags.fragment_of(u)
            rv = frags.fragment_of(v)
            if frags.merge(u, v):
                chosen.append((min(u, v), max(u, v)))
                root = frags.fragment_of(u)
                remap[ru] = root
                remap[rv] = root
        # squash merge chains (root absorbed by a later merge this phase)
        while True:
            squashed = remap[remap]
            if np.array_equal(squashed, remap):
                break
            remap = squashed
        comp = remap[comp]
        counter.merge(phase_counter)
        phases.append(
            PhaseRecord(
                phase=phase_idx,
                fragments_before=fragments_before,
                fragments_after=frags.count,
                chosen_edges=tuple(sorted(chosen)),
                messages=phase_counter.as_dict(),
            )
        )
    return phases


def _seed_fragments(
    frags: FragmentSet,
    initial_edges: list[tuple[int, int]] | None,
    edge_exists,
) -> None:
    if not initial_edges:
        return
    for u, v in initial_edges:
        if not edge_exists(u, v):
            raise ValueError(f"initial edge ({u}, {v}) is not a usable link")
        if not frags.merge(u, v):
            raise ValueError(f"initial edges contain a cycle at ({u}, {v})")


def distributed_boruvka(
    weights: np.ndarray,
    adjacency: np.ndarray,
    *,
    max_phases: int | None = None,
    initial_edges: list[tuple[int, int]] | None = None,
) -> BoruvkaResult:
    """Run synchronous Borůvka over ``adjacency`` maximizing ``weights``.

    Parameters
    ----------
    weights:
        Symmetric ``(n, n)`` PS-strength matrix (higher = heavier edge).
    adjacency:
        Boolean usable-edge mask (the proximity graph).
    max_phases:
        Safety cap; defaults to ``2·⌈log₂ n⌉ + 4``.
    initial_edges:
        Tree edges that already exist (e.g. what survived a failure);
        the corresponding fragments are formed for free — no messages —
        and the phases only pay for the *remaining* merging.  This is the
        primitive behind :mod:`repro.spanningtree.repair`.

    On a disconnected graph the result is the maximum spanning forest and
    ``converged`` is ``False``.
    """
    w = np.asarray(weights, dtype=float)
    adj = np.asarray(adjacency, dtype=bool)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weights must be square, got {w.shape}")
    if adj.shape != w.shape:
        raise ValueError("adjacency shape must match weights")
    n = w.shape[0]
    if n == 0:
        raise ValueError("graph must have at least one node")
    if max_phases is None:
        max_phases = _default_max_phases(n)

    # masked weights: -inf where no usable edge
    base = np.where(adj, w, -np.inf)
    np.fill_diagonal(base, -np.inf)

    frags = FragmentSet(n)
    _seed_fragments(frags, initial_edges, lambda u, v: bool(adj[u, v]))
    counter = MessageCounter()
    node_ids = np.arange(n)

    def candidates(comp: np.ndarray):
        # outgoing = usable edges whose endpoints are in different fragments
        outgoing = np.where(comp[:, None] != comp[None, :], base, -np.inf)
        best_nbr = np.argmax(outgoing, axis=1)
        best_w = outgoing[node_ids, best_nbr]
        has_out = np.isfinite(best_w)
        us = np.nonzero(has_out)[0]
        return us, best_nbr[us], best_w[us]

    phases = _drive_phases(n, frags, counter, max_phases, candidates)
    return BoruvkaResult(
        edges=frags.all_tree_edges(),
        phases=phases,
        counter=counter,
        fragments=frags.fragments(),
    )


def distributed_boruvka_csr(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_weight: np.ndarray,
    *,
    max_phases: int | None = None,
    initial_edges: list[tuple[int, int]] | None = None,
) -> BoruvkaResult:
    """CSR :func:`distributed_boruvka`: O(E) per phase, no (n, n) arrays.

    The graph must be symmetric (every edge present in both directions,
    as the :class:`~repro.radio.sparse_link.SparseLinkBudget` proximity
    CSR is) with direction-symmetric weights.  Produces the same phases,
    chosen edges and message bill as the dense function on the
    equivalent matrix inputs.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    edge_weight = np.asarray(edge_weight, dtype=float)
    if n <= 0:
        raise ValueError("graph must have at least one node")
    if max_phases is None:
        max_phases = _default_max_phases(n)
    tx = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))

    # sorted directed codes for the initial-edge membership check
    codes = (tx.astype(np.uint64) << np.uint64(32)) | indices.astype(np.uint64)

    def edge_exists(u: int, v: int) -> bool:
        code = (np.uint64(u) << np.uint64(32)) | np.uint64(v)
        pos = int(np.searchsorted(codes, code))
        return pos < codes.size and codes[pos] == code

    frags = FragmentSet(n)
    _seed_fragments(frags, initial_edges, edge_exists)
    counter = MessageCounter()

    # one up-front sort by (tx, weight desc, neighbour id asc): each
    # phase then just takes the first still-outgoing edge per node —
    # O(E) per phase instead of an O(E log E) lexsort per phase
    order0 = np.lexsort((indices, -edge_weight, tx))
    t_s = tx[order0]
    r_s = indices[order0]
    w_s = edge_weight[order0]

    def candidates(comp: np.ndarray):
        idx = np.flatnonzero(comp[t_s] != comp[r_s])
        if idx.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=float)
        t = t_s[idx]
        # first surviving edge per node = its heaviest outgoing edge
        # (ties → lowest neighbour id, as in the dense argmax scan)
        first = np.concatenate(([True], t[1:] != t[:-1]))
        sel = idx[first]
        return t_s[sel], r_s[sel], w_s[sel]

    phases = _drive_phases(n, frags, counter, max_phases, candidates)
    return BoruvkaResult(
        edges=frags.all_tree_edges(),
        phases=phases,
        counter=counter,
        fragments=frags.fragments(),
    )
