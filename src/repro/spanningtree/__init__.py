"""Distributed maximum-weight spanning-tree construction (paper §IV).

The proposed ST method grows a spanning tree Borůvka/GHS style over the
proximity graph, using PS strength (RSSI) as edge weight and always
selecting each fragment's *heaviest* outgoing edge ("by selecting heavy
edge, devices make synchronization in networks").  This subpackage holds:

* :mod:`repro.spanningtree.unionfind` — union–find with size tracking;
* :mod:`repro.spanningtree.messages` — protocol message kinds + counters;
* :mod:`repro.spanningtree.fragment` — fragment bookkeeping;
* :mod:`repro.spanningtree.boruvka` — synchronous distributed Borůvka
  (the mechanism inside Algorithm 1/2) with per-message accounting;
* :mod:`repro.spanningtree.ghs` — level-based GHS merge-rule variant;
* :mod:`repro.spanningtree.mst` — centralized Kruskal reference used to
  validate that the distributed algorithms find a true maximum spanning
  tree (they must, on distinct weights).
"""

from repro.spanningtree.boruvka import BoruvkaResult, PhaseRecord, distributed_boruvka
from repro.spanningtree.fragment import Fragment, FragmentSet
from repro.spanningtree.ghs import GHSResult, distributed_ghs
from repro.spanningtree.liveview import FragmentInfo, FragmentView
from repro.spanningtree.messages import MessageCounter, MessageKind
from repro.spanningtree.mst import (
    is_spanning_tree,
    maximum_spanning_tree,
    tree_weight,
)
from repro.spanningtree.repair import (
    RepairResult,
    repair_after_failure_csr,
)
from repro.spanningtree.unionfind import UnionFind

__all__ = [
    "BoruvkaResult",
    "Fragment",
    "FragmentInfo",
    "FragmentSet",
    "FragmentView",
    "GHSResult",
    "MessageCounter",
    "MessageKind",
    "PhaseRecord",
    "RepairResult",
    "UnionFind",
    "repair_after_failure_csr",
    "distributed_boruvka",
    "distributed_ghs",
    "is_spanning_tree",
    "maximum_spanning_tree",
    "tree_weight",
]
