"""Test helper: a link CSR over an explicit mean-power matrix.

The simulation kernels consume a :class:`~repro.radio.sparse_link.
SparseLinkBudget`, which is built from device positions.  Unit tests
that want a hand-made radio environment (arbitrary powers, forced
isolations, tiny path graphs) describe it as an ``(n, n)`` matrix
instead; :class:`MatrixLinkBudget` turns that matrix into the same CSR
layout so the tests drive the real kernels.
"""

from __future__ import annotations

import numpy as np

from repro.radio.fading import FADE_CAP_DB, HashedRayleighFading, NoFading
from repro.radio.sparse_link import SparseLinkBudget, csr_from_edges


class MatrixLinkBudget(SparseLinkBudget):
    """A :class:`SparseLinkBudget` whose mean powers come from a matrix.

    ``mean_rx_dbm[tx, rx]`` is the mean received power; ``-inf`` (or
    anything below the radio-graph floor) means no edge.  With hashed
    fading the radio graph keeps edges within the fade cap of the
    threshold, exactly as the position-built budget does.
    """

    def __init__(
        self,
        mean_rx_dbm: np.ndarray,
        *,
        threshold_dbm: float = -95.0,
        fading=None,
        links: np.ndarray | None = None,
    ) -> None:
        m = np.asarray(mean_rx_dbm, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("mean_rx_dbm must be square")
        self.n = n = m.shape[0]
        self.threshold_dbm = float(threshold_dbm)
        self.fading = fading if fading is not None else NoFading()
        self.headroom_db = (
            FADE_CAP_DB if isinstance(self.fading, HashedRayleighFading) else 0.0
        )
        if links is None:
            keep = np.isfinite(m) & (m >= self.threshold_dbm - self.headroom_db)
        else:
            keep = np.asarray(links, dtype=bool).copy()
        np.fill_diagonal(keep, False)
        tx, rx = np.nonzero(keep)
        self.indptr, self.indices, (self.power_dbm,) = csr_from_edges(
            n, tx, rx, m[tx, rx]
        )
        self.row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        if links is None:
            self.edge_is_link = self.power_dbm >= self.threshold_dbm
        else:
            self.edge_is_link = np.ones(self.indices.size, dtype=bool)
        lpos = np.flatnonzero(self.edge_is_link)
        self.link_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.row_ids[lpos], minlength=n),
            out=self.link_indptr[1:],
        )
        self.link_indices = self.indices[lpos]
        self.link_power_dbm = self.power_dbm[lpos]
        self.link_row_ids = self.row_ids[lpos]
        self._edge_codes = None

    @classmethod
    def from_graph(cls, weights: np.ndarray, adjacency: np.ndarray, **kwargs):
        """Link CSR of a weighted graph: every adjacent pair is a link
        carrying its ``weights`` entry, whatever the value."""
        return cls(weights, links=adjacency, **kwargs)


def edge_matrix(budget: SparseLinkBudget, mask: np.ndarray) -> np.ndarray:
    """Radio-edge mask → ``(n, n)`` ``[receiver, sender]`` matrix."""
    out = np.zeros((budget.n, budget.n), dtype=bool)
    out[budget.indices[mask], budget.row_ids[mask]] = True
    return out


def edge_mask(budget: SparseLinkBudget, matrix: np.ndarray) -> np.ndarray:
    """``(n, n)`` ``[receiver, sender]`` matrix → radio-edge mask."""
    return np.asarray(matrix, dtype=bool)[budget.indices, budget.row_ids]
