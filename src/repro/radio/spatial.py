"""Uniform cell-grid spatial index for candidate link generation.

The dense pipeline forms an ``(n, n, 2)`` difference tensor to find which
device pairs are in radio range — O(n²) time and memory even when the
proximity graph is sparse.  At constant density the number of pairs
within the maximum detection radius is O(n), so a uniform grid with cell
side equal to that radius finds every candidate pair by scanning each
cell against itself and its half-neighbourhood: O(n + E_cand) work.

:meth:`CellGrid.blocks` yields those scans as **member blocks** — the
members of a cell and of one neighbour cell (or of the cell itself) —
and :func:`pair_slices` turns each block into squared distances,
broadcast over row slices of at most ``max_chunk_pairs`` entries, so
nothing of size n² (or even E_cand) is ever resident and no per-pair
index array is gathered.  Every unordered pair of devices in the same or
adjacent cells appears in exactly one slice (in-cell blocks mask their
lower triangle); pairs up to ``√8 · radius`` apart can appear
(corner-to-corner of a 3×3 neighbourhood), and the consumer applies the
exact distance filter.  When the radius covers the whole bounding box the
grid degenerates to a single cell — the graceful dense fallback.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Default slice bound (pairs) for :func:`pair_slices`, shared by the
#: link-budget build and the shard halo.  Small enough that a slice's
#: per-pair float64 temporaries (256 KiB each) stay in cache
#: (docs/performance.md).  The output does not depend on it.
DEFAULT_CHUNK_PAIRS = 1 << 15

#: Half-neighbourhood offsets: together with the in-cell scan they cover
#: every adjacent cell pair exactly once.
_HALF_OFFSETS = ((0, 1), (1, -1), (1, 0), (1, 1))

#: The whole 3×3 neighbourhood, for the bipartite scan of
#: :meth:`CellGrid.cross_blocks` (ordered cell pairs, so no halving).
_ALL_OFFSETS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


class CellGrid:
    """Uniform grid over 2-D positions with cell side ``cell_m``.

    Parameters
    ----------
    positions:
        ``(n, 2)`` coordinates in metres.
    cell_m:
        Cell side; pairs within ``cell_m`` of each other are always in
        the same or adjacent cells.
    """

    def __init__(self, positions: np.ndarray, cell_m: float) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(
                f"positions must have shape (n, 2), got {positions.shape}"
            )
        if not cell_m > 0:
            raise ValueError(f"cell_m must be positive, got {cell_m}")
        self.positions = positions
        self.cell_m = float(cell_m)
        n = positions.shape[0]
        if n == 0:
            self.ncx = self.ncy = 0
            self._order = np.empty(0, dtype=np.int64)
            self._cell_ids = np.empty(0, dtype=np.int64)
            self._starts = np.empty(0, dtype=np.int64)
            self._counts = np.empty(0, dtype=np.int64)
            self._lookup: dict[int, int] = {}
            return
        origin = positions.min(axis=0)
        cx = np.floor((positions[:, 0] - origin[0]) / cell_m).astype(np.int64)
        cy = np.floor((positions[:, 1] - origin[1]) / cell_m).astype(np.int64)
        self.ncx = int(cx.max()) + 1
        self.ncy = int(cy.max()) + 1
        cell = cx * self.ncy + cy
        # stable sort → members of each cell stay in ascending node order,
        # making the block order deterministic
        self._order = np.argsort(cell, kind="stable")
        sorted_cells = cell[self._order]
        ids, starts, counts = np.unique(
            sorted_cells, return_index=True, return_counts=True
        )
        self._cell_ids = ids
        self._starts = starts
        self._counts = counts
        self._lookup = {int(c): k for k, c in enumerate(ids)}

    @property
    def occupied_cells(self) -> int:
        return int(self._cell_ids.size)

    def members(self, cell_index: int) -> np.ndarray:
        """Node ids in the ``cell_index``-th occupied cell, ascending."""
        s = self._starts[cell_index]
        return self._order[s : s + self._counts[cell_index]]

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Member blocks ``(a, b)`` covering every candidate pair once.

        For each occupied cell, first ``(a, a)`` — its own members, whose
        pairs are the upper triangle ``a[r] × a[c]``, ``c > r`` — then
        ``(a, b)`` for each occupied half-neighbourhood cell ``b``, whose
        pairs are the full product.  Cells ascend; members ascend.
        """
        for k in range(self.occupied_cells):
            a = self.members(k)
            yield a, a
            cx, cy = divmod(int(self._cell_ids[k]), self.ncy)
            for dx, dy in _HALF_OFFSETS:
                nx, ny = cx + dx, cy + dy
                if 0 <= nx < self.ncx and 0 <= ny < self.ncy:
                    nk = self._lookup.get(nx * self.ncy + ny)
                    if nk is not None:
                        yield a, self.members(nk)

    def cross_blocks(
        self, split: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Member blocks ``(a, b)`` covering every candidate pair of a
        node below ``split`` and one at or above it, once.

        For each occupied cell, its members below ``split`` against the
        members at or above ``split`` of each occupied cell of its 3×3
        neighbourhood; every block's pairs are the full product.
        """
        for k in range(self.occupied_cells):
            m = self.members(k)
            a = m[: np.searchsorted(m, split)]
            if a.size == 0:
                continue
            cx, cy = divmod(int(self._cell_ids[k]), self.ncy)
            for dx, dy in _ALL_OFFSETS:
                nx, ny = cx + dx, cy + dy
                if 0 <= nx < self.ncx and 0 <= ny < self.ncy:
                    nk = self._lookup.get(nx * self.ncy + ny)
                    if nk is not None:
                        mb = self.members(nk)
                        b = mb[np.searchsorted(mb, split) :]
                        if b.size:
                            yield a, b


def pair_slices(
    positions: np.ndarray,
    radius_m: float,
    *,
    split: int | None = None,
    max_chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """Squared distances of every candidate pair, one block slice at a time.

    Yields ``(rows, cols, d2, upper)``: node ids ``rows`` (k,) and
    ``cols`` (m,), ``d2[r, c]`` the squared distance between them, and
    ``upper`` — ``None`` when every entry is a pair, else the (k, m)
    mask of the entries that are (in-cell slices, whose other entries
    are self-pairs or pairs another slice holds).  Every pair closer
    than ``radius_m`` is in exactly one slice; a slice holds at most
    ``max_chunk_pairs`` entries unless one row is longer.  With
    ``split``, the pairs are only those of a node below ``split`` (a
    row) and one at or above it (a column), and ``upper`` is ``None``
    (:meth:`CellGrid.cross_blocks`).
    """
    if max_chunk_pairs < 1:
        raise ValueError("max_chunk_pairs must be >= 1")
    if radius_m <= 0:
        return
    grid = CellGrid(positions, radius_m)
    x = np.ascontiguousarray(grid.positions[:, 0])
    y = np.ascontiguousarray(grid.positions[:, 1])
    blocks = grid.blocks() if split is None else grid.cross_blocks(split)
    for a, b in blocks:
        same = a is b
        xa, ya, xb, yb = x[a], y[a], x[b], y[b]
        step = max(1, max_chunk_pairs // b.size)
        for r0 in range(0, a.size, step):
            r1 = min(r0 + step, a.size)
            c0 = r0 + 1 if same else 0
            if c0 >= b.size:
                break
            # in-cell: columns from the slice's second row on, so only a
            # k×k corner of the slice is masked
            d2 = np.subtract.outer(xa[r0:r1], xb[c0:])
            dy = np.subtract.outer(ya[r0:r1], yb[c0:])
            d2 *= d2
            dy *= dy
            d2 += dy
            upper = None
            if same:
                upper = np.arange(b.size - c0) >= np.arange(r1 - r0)[:, None]
            yield a[r0:r1], b[c0:], d2, upper
