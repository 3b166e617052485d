"""Exact fragment sizes and diameters for the ST timing replay.

The ST timing model charges each Borůvka merge by the sizes and hop
diameters of the two fragments it joins.  :class:`ReplayLedger` answers
those queries incrementally — union-find sizes plus O(1) diameters from
a :class:`TreeDistanceOracle` over the final Borůvka forest (Euler tour
+ sparse-table RMQ) — instead of a double BFS per merge.
"""

from __future__ import annotations

import numpy as np

from repro.spanningtree.unionfind import UnionFind


class TreeDistanceOracle:
    """Exact O(1) hop distances on a fixed forest.

    Built once from the final Borůvka forest: an Euler tour per
    component plus a sparse-table RMQ over tour depths.  ``distance(x,
    y)`` is ``depth[x] + depth[y] − 2·min-depth`` on the tour interval —
    all integer arithmetic, so results equal a BFS exactly.  Because a
    fragment's tree is a connected subgraph of the final forest, the
    unique path between two co-fragment nodes is the same in both, and
    mid-replay fragment distances can be answered from the completed
    forest.
    """

    def __init__(self, n: int, edges: list[tuple[int, int]]) -> None:
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        depth = [0] * n
        first = [0] * n
        tour: list[int] = []
        visited = bytearray(n)
        for root in range(n):
            if visited[root]:
                continue
            visited[root] = 1
            first[root] = len(tour)
            tour.append(0)
            stack = [(root, iter(adj[root]))]
            while stack:
                node, it = stack[-1]
                descended = False
                for child in it:
                    if visited[child]:
                        continue
                    visited[child] = 1
                    depth[child] = depth[node] + 1
                    first[child] = len(tour)
                    tour.append(depth[child])
                    stack.append((child, iter(adj[child])))
                    descended = True
                    break
                if not descended:
                    stack.pop()
                    if stack:
                        tour.append(depth[stack[-1][0]])
        self._depth = depth
        self._first = first
        # sparse table: level k holds windowed minima of width 2^k
        level = np.asarray(tour, dtype=np.int32)
        size = level.size
        self._table = [level]
        k = 1
        while (1 << k) <= size:
            half = 1 << (k - 1)
            prev = self._table[-1]
            width = size - (1 << k) + 1
            self._table.append(np.minimum(prev[:width], prev[half:half + width]))
            k += 1

    def distance(self, x: int, y: int) -> int:
        """Hop distance between ``x`` and ``y`` (must share a component)."""
        if x == y:
            return 0
        lo = self._first[x]
        hi = self._first[y]
        if lo > hi:
            lo, hi = hi, lo
        k = (hi - lo + 1).bit_length() - 1
        t = self._table[k]
        m = min(t[lo], t[hi - (1 << k) + 1])
        return self._depth[x] + self._depth[y] - 2 * int(m)


class ReplayLedger:
    """Fragment bookkeeping for the ST timing replay.

    Replays the Borůvka merge schedule and answers the size/diameter
    queries the timing model asks before each merge, with O(α) sizes and
    O(1) diameters: per-fragment diameter endpoints are maintained under
    the classic merge rule

    ``diam(A ∪ B) = max(diam A, diam B, ecc_A(u) + 1 + ecc_B(v))``

    where ``ecc_T(x) = max(d(x, a), d(x, b))`` for any diameter pair
    ``(a, b)`` of T — four oracle distance queries per merge, all exact
    integers, so every diameter equals what a double BFS over the
    fragment's tree would compute (``tests/test_core_st.py``).
    """

    def __init__(self, n: int, forest_edges: list[tuple[int, int]]) -> None:
        self._oracle = TreeDistanceOracle(n, forest_edges)
        self._uf = UnionFind(n)
        self._diam = [0] * n
        self._end_a = list(range(n))
        self._end_b = list(range(n))
        self._roots = set(range(n))
        self._edges: list[tuple[int, int]] = []
        self.count = n

    def size_of(self, u: int) -> int:
        return self._uf.size_of(u)

    def diameter_of(self, u: int) -> int:
        return self._diam[self._uf.find(u)]

    def merge(self, u: int, v: int) -> bool:
        uf = self._uf
        ru, rv = uf.find(u), uf.find(v)
        if ru == rv:
            return False
        dist = self._oracle.distance
        d_a, a_a, b_a = self._diam[ru], self._end_a[ru], self._end_b[ru]
        d_b, a_b, b_b = self._diam[rv], self._end_a[rv], self._end_b[rv]
        dau, dbu = dist(a_a, u), dist(b_a, u)
        ecc_u, far_u = (dau, a_a) if dau >= dbu else (dbu, b_a)
        dav, dbv = dist(a_b, v), dist(b_b, v)
        ecc_v, far_v = (dav, a_b) if dav >= dbv else (dbv, b_b)
        cross = ecc_u + 1 + ecc_v
        uf.union(u, v)
        root = uf.find(u)
        if cross >= d_a and cross >= d_b:
            nd, na, nb = cross, far_u, far_v
        elif d_a >= d_b:
            nd, na, nb = d_a, a_a, b_a
        else:
            nd, na, nb = d_b, a_b, b_b
        self._diam[root] = nd
        self._end_a[root] = na
        self._end_b[root] = nb
        self._roots.discard(ru)
        self._roots.discard(rv)
        self._roots.add(root)
        self._edges.append((u, v) if u < v else (v, u))
        self.count -= 1
        return True

    def sizes(self) -> list[int]:
        """Current fragment sizes (same multiset as ``fragments()``)."""
        uf = self._uf
        return [uf.size_of(r) for r in sorted(self._roots)]

    def all_tree_edges(self) -> list[tuple[int, int]]:
        return sorted(set(self._edges))
