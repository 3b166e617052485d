"""Uniform cell-grid spatial index for candidate link generation.

The dense pipeline forms an ``(n, n, 2)`` difference tensor to find which
device pairs are in radio range — O(n²) time and memory even when the
proximity graph is sparse.  At constant density the number of pairs
within the maximum detection radius is O(n), so a uniform grid with cell
side equal to that radius generates every candidate pair by scanning each
cell against its half-neighbourhood: O(n + E_cand) work, streamed in
bounded chunks so nothing of size n² (or even E_cand) is ever resident.

The generator yields **unordered** pairs ``(i, j)`` with ``i < j``, each
exactly once, in a deterministic order (cells ascending, fixed offset
order, members ascending).  Pairs up to ``√8 · radius`` apart can appear
(corner-to-corner of a 3×3 neighbourhood); the consumer applies the exact
distance filter.  When the radius covers the whole bounding box the grid
degenerates to a single cell and the generator streams all pairs — the
graceful dense fallback.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Default chunk bound (pairs) for the streamed generator, shared by the
#: link-budget build and the shard halo.  Small enough that a chunk's
#: per-pair float64 temporaries (256 KiB each) stay in cache: 2¹⁴–2¹⁶
#: build alike, 2²¹ builds 1.5–1.7× slower at n = 4096 and 20 000
#: (docs/performance.md).  The output does not depend on it.
DEFAULT_CHUNK_PAIRS = 1 << 15

#: Half-neighbourhood offsets: together with the in-cell scan they cover
#: every adjacent cell pair exactly once.
_HALF_OFFSETS = ((0, 1), (1, -1), (1, 0), (1, 1))


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
            return
        origin = positions.min(axis=0)
        cx = np.floor((positions[:, 0] - origin[0]) / cell_m).astype(np.int64)
        cy = np.floor((positions[:, 1] - origin[1]) / cell_m).astype(np.int64)
        self.ncx = int(cx.max()) + 1
        self.ncy = int(cy.max()) + 1
        cell = cx * self.ncy + cy
        # stable sort → members of each cell stay in ascending node order,
        # making the generated pair order deterministic
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

    # ------------------------------------------------------------------
    def _neighbor_index(self, cell_id: int, dx: int, dy: int) -> int | None:
        cx, cy = divmod(cell_id, self.ncy)
        nx, ny = cx + dx, cy + dy
        if not (0 <= nx < self.ncx and 0 <= ny < self.ncy):
            return None
        return self._lookup.get(nx * self.ncy + ny)

    def pair_chunks(
        self, *, max_chunk_pairs: int = DEFAULT_CHUNK_PAIRS
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stream candidate pairs ``(i, j)``, ``i < j``, each exactly once.

        Chunks hold at most ~``max_chunk_pairs`` pairs (a single cell-pair
        block may overshoot by one sub-block), keeping transient memory
        bounded regardless of n.
        """
        if max_chunk_pairs < 1:
            raise ValueError("max_chunk_pairs must be >= 1")
        buf_i: list[np.ndarray] = []
        buf_j: list[np.ndarray] = []
        buffered = 0

        def emit(a: np.ndarray, b: np.ndarray):
            nonlocal buffered
            buf_i.append(a)
            buf_j.append(b)
            buffered += a.size

        for k in range(self.occupied_cells):
            cell_id = int(self._cell_ids[k])
            members = self._order[
                self._starts[k] : self._starts[k] + self._counts[k]
            ]
            m = members.size
            # in-cell pairs: split the triangle into row blocks so a huge
            # cell cannot blow the chunk bound
            rows_per_block = max(1, max_chunk_pairs // max(m, 1))
            for r0 in range(0, m, rows_per_block):
                r1 = min(r0 + rows_per_block, m)
                il, jl = np.triu_indices(r1 - r0, k=1)
                if il.size:
                    emit(members[r0 + il], members[r0 + jl])
                tail = members[r1:]
                if tail.size:
                    block = members[r0:r1]
                    emit(
                        np.repeat(block, tail.size),
                        np.tile(tail, block.size),
                    )
                while buffered >= max_chunk_pairs:
                    yield self._flush(buf_i, buf_j)
                    buffered = 0
            # half-neighbourhood cross pairs
            for dx, dy in _HALF_OFFSETS:
                nk = self._neighbor_index(cell_id, dx, dy)
                if nk is None:
                    continue
                others = self._order[
                    self._starts[nk] : self._starts[nk] + self._counts[nk]
                ]
                rows_per_block = max(1, max_chunk_pairs // max(others.size, 1))
                for r0 in range(0, m, rows_per_block):
                    block = members[r0 : r0 + rows_per_block]
                    a = np.repeat(block, others.size)
                    b = np.tile(others, block.size)
                    emit(np.minimum(a, b), np.maximum(a, b))
                    while buffered >= max_chunk_pairs:
                        yield self._flush(buf_i, buf_j)
                        buffered = 0
        if buffered:
            yield self._flush(buf_i, buf_j)

    @staticmethod
    def _flush(
        buf_i: list[np.ndarray], buf_j: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        i = np.concatenate(buf_i) if buf_i else np.empty(0, dtype=np.int64)
        j = np.concatenate(buf_j) if buf_j else np.empty(0, dtype=np.int64)
        buf_i.clear()
        buf_j.clear()
        return i, j


def candidate_pair_chunks(
    positions: np.ndarray,
    radius_m: float,
    *,
    max_chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream all unordered pairs that could be within ``radius_m``.

    Every pair closer than ``radius_m`` is guaranteed to appear; pairs up
    to ``√8 · radius_m`` may also appear (exact filtering is the
    consumer's job, which needs the distances anyway).
    """
    if radius_m <= 0:
        return iter(())
    return CellGrid(positions, radius_m).pair_chunks(
        max_chunk_pairs=max_chunk_pairs
    )
