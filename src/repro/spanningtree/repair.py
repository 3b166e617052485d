"""Spanning-tree repair after device failure (churn extension).

When a tree device dies (battery, mobility out of cell, user exit), the
spanning tree splits into as many fragments as the dead device had tree
neighbours.  Rebuilding from scratch costs the full Borůvka bill; the
*repair* protocol instead keeps every surviving fragment intact and runs
Borůvka seeded with those fragments — only the few re-merging phases are
paid.  :func:`repair_after_failure_csr` implements this over the link
CSR and reports both the repaired tree and the message cost, so the
repair-vs-rebuild saving is measurable (see ``benchmarks/bench_extensions.py``).

This addresses the paper's §VI "more realistic scenarios" future work:
real D2D populations churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.radio.sparse_link import csr_subgraph
from repro.spanningtree.boruvka import distributed_boruvka_csr
from repro.spanningtree.messages import MessageCounter
from repro.spanningtree.unionfind import UnionFind


@dataclass
class RepairResult:
    """Outcome of one repair."""

    #: the repaired tree over the surviving devices
    tree_edges: list[tuple[int, int]]
    #: edges newly added by the repair phases
    new_edges: list[tuple[int, int]]
    #: tree edges lost with the failed devices
    removed_edges: list[tuple[int, int]]
    #: fragments the failure created (before re-merging)
    fragments_after_failure: int
    messages: int
    phases: int
    #: True when the surviving devices are spanned again
    repaired: bool
    counter: MessageCounter


def _normalize_failed(
    failed: int | Iterable[int], n: int
) -> tuple[set[int], list[int]]:
    """Validated ``(failed ids, survivor ids)`` for an n-device network."""
    failed_set = {int(failed)} if isinstance(failed, (int, np.integer)) else set(
        int(f) for f in failed
    )
    for f in failed_set:
        if not 0 <= f < n:
            raise ValueError(f"failed id {f} out of range [0, {n})")
    survivors = [i for i in range(n) if i not in failed_set]
    if not survivors:
        raise ValueError("all devices failed; nothing to repair")
    return failed_set, survivors


def _split_tree(
    tree_edges: Iterable[tuple[int, int]],
    failed_set: set[int],
    survivors: list[int],
    n: int,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], int]:
    """Surviving/removed edge split + fragment count after the failure."""
    surviving_edges: list[tuple[int, int]] = []
    removed_edges: list[tuple[int, int]] = []
    for edge in tree_edges:
        e = tuple(sorted(edge))
        if e[0] in failed_set or e[1] in failed_set:
            removed_edges.append(e)
        else:
            surviving_edges.append(e)
    # how many pieces did the failure leave? (failed ids excluded)
    uf = UnionFind(n)
    for u, v in surviving_edges:
        uf.union(u, v)
    fragments = len({uf.find(i) for i in survivors})
    return surviving_edges, removed_edges, fragments


def repair_after_failure_csr(
    tree_edges: Iterable[tuple[int, int]],
    failed: int | Iterable[int],
    budget,
) -> RepairResult:
    """Repair ``tree_edges`` after ``failed`` device(s) leave — O(E) work.

    Parameters
    ----------
    tree_edges:
        The spanning tree before the failure.
    failed:
        A device id or a collection of ids that left.
    budget:
        The :class:`~repro.radio.sparse_link.SparseLinkBudget`; links
        touching failed devices are filtered out in CSR form and Borůvka
        re-runs seeded with the surviving fragments (free — no
        messages), so only the re-merging phases are paid.

    Raises
    ------
    ValueError
        If every device failed, or an id is out of range.
    """
    n = budget.n
    failed_set, survivors = _normalize_failed(failed, n)
    surviving_edges, removed_edges, fragments = _split_tree(
        tree_edges, failed_set, survivors, n
    )

    alive = np.ones(n, dtype=bool)
    alive[list(failed_set)] = False
    rows = budget.link_row_ids
    nbr = budget.link_indices
    indptr, indices, (weight,) = csr_subgraph(
        n, rows, nbr, alive[rows] & alive[nbr], budget.link_power_dbm
    )
    result = distributed_boruvka_csr(
        n, indptr, indices, weight, initial_edges=surviving_edges
    )
    # repaired iff all survivors ended in one fragment (failed ids remain
    # isolated singleton fragments by construction)
    survivor_fragments = {
        frag.head
        for frag in result.fragments
        if not frag.members <= failed_set
    }
    return RepairResult(
        tree_edges=result.edges,
        new_edges=sorted(set(result.edges) - set(surviving_edges)),
        removed_edges=sorted(removed_edges),
        fragments_after_failure=fragments,
        messages=result.counter.total,
        phases=result.phase_count,
        repaired=len(survivor_fragments) == 1,
        counter=result.counter,
    )
