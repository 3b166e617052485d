"""Test helper: a link CSR over an explicit mean-power matrix.

The simulation kernels consume a :class:`~repro.radio.sparse_link.
SparseLinkBudget`, which is built from device positions.  Unit tests
that want a hand-made radio environment (arbitrary powers, forced
isolations, tiny path graphs) describe it as an ``(n, n)`` matrix
instead; :class:`MatrixLinkBudget` turns that matrix into the same CSR
layout so the tests drive the real kernels, and
:func:`matrix_sync_kernel` builds the CSR pulse-sync kernel over such a
matrix and a coupling mask.
"""

from __future__ import annotations

import numpy as np

from repro.core.pulsesync import SparsePulseSyncKernel
from repro.oscillator.prc import LinearPRC
from repro.radio.fading import FADE_CAP_DB, HashedRayleighFading, NoFading
from repro.radio.sparse_link import SparseLinkBudget, csr_from_edges


class StreamModel:
    """A channel model without ``link_db``: draws that cannot be keyed
    per edge, which every CSR consumer must reject."""


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


def matrix_sync_kernel(
    mean_rx_dbm: np.ndarray,
    adjacency: np.ndarray | None = None,
    prc: LinearPRC | None = None,
    **kwargs,
) -> SparsePulseSyncKernel:
    """CSR pulse-sync kernel over a mean-power matrix and coupling mask.

    Every adjacent off-diagonal pair (every pair when ``adjacency`` is
    omitted) becomes one directed edge carrying ``mean_rx_dbm[tx, rx]``.
    Defaults are the paper PRC (a = 3, ε = 0.08), a 100 ms period and a
    −95 dBm threshold; keyword arguments go to the kernel.
    """
    m = np.asarray(mean_rx_dbm, dtype=float)
    n = m.shape[0]
    coupled = ~np.eye(n, dtype=bool)
    if adjacency is not None:
        coupled &= np.asarray(adjacency, dtype=bool)
    tx, rx = np.nonzero(coupled)
    kwargs.setdefault("period_ms", 100.0)
    kwargs.setdefault("threshold_dbm", -95.0)
    return SparsePulseSyncKernel.from_edges(
        n, tx, rx, m[tx, rx], prc or LinearPRC.from_dissipation(3.0, 0.08), **kwargs
    )
