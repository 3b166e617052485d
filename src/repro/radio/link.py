"""Dense link budget: path loss, shadowing and fading over all pairs.

:class:`LinkBudget` computes the *mean* received-power matrix for a
static topology once (O(n²), vectorized).  It is the dense helper view:
analysis, plotting, the matrix spanning-tree functions at small n and
the dense test references use it, while the simulations run on the CSR
:class:`~repro.radio.sparse_link.SparseLinkBudget`.  Both take the same
counter-hashed channel models, so every dense entry equals the CSR value
for the same link bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.radio.fading import NoFading
from repro.radio.pathloss import PathLossModel
from repro.radio.shadowing import NoShadowing


class LinkBudget:
    """Received-power computation over a static set of device positions.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of device coordinates in metres.
    pathloss:
        Path-loss model (Table I model by default at the call sites).
    tx_power_dbm:
        Transmit power (Table I: 23 dBm).
    threshold_dbm:
        Detection threshold (Table I: −95 dBm).
    shadowing, fading:
        Channel impairments; pass ``NoShadowing()`` / ``NoFading()`` for
        oracle-channel ablations.
    """

    def __init__(
        self,
        positions: np.ndarray,
        pathloss: PathLossModel,
        *,
        tx_power_dbm: float = 23.0,
        threshold_dbm: float = -95.0,
        shadowing=None,
        fading=None,
    ) -> None:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(
                f"positions must have shape (n, 2), got {positions.shape}"
            )
        self.positions = positions
        self.n = positions.shape[0]
        self.pathloss = pathloss
        self.tx_power_dbm = float(tx_power_dbm)
        self.threshold_dbm = float(threshold_dbm)
        self.shadowing = shadowing if shadowing is not None else NoShadowing()
        self.fading = fading if fading is not None else NoFading()

        diff = positions[:, None, :] - positions[None, :, :]
        self.distance_m = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        loss = np.asarray(pathloss.loss_db(self.distance_m), dtype=float)
        self._shadow_db = self.shadowing.link_matrix(self.n)
        # Mean received power (before fast fading), dBm.  Diagonal is
        # meaningless (a device does not receive itself) — set to -inf.
        self.mean_rx_dbm = self.tx_power_dbm - loss - self._shadow_db
        np.fill_diagonal(self.mean_rx_dbm, -np.inf)

    # ------------------------------------------------------------------
    def mean_power_dbm(self, tx: int, rx: int) -> float:
        """Mean received power on link tx→rx (dBm, fading excluded)."""
        return float(self.mean_rx_dbm[tx, rx])

    def adjacency(self, margin_db: float = 0.0) -> np.ndarray:
        """Boolean matrix: mean rx power ≥ threshold + margin.

        This is the *proximity graph* of the paper's G(V, E): an edge
        exists when the PS is detectable on average.
        """
        return self.mean_rx_dbm >= (self.threshold_dbm + margin_db)

    def broadcast_power(
        self, tx: int, event: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One PS broadcast from ``tx`` at radio event ``event``.

        Returns ``(power_dbm[n], detected[n])``: the mean power plus the
        fading draw ``fading.link_db(event, tx, rx)`` per receiver, and
        whether it clears the threshold.  The sender never detects
        itself.  The same event replays the same draws bitwise.
        """
        if not 0 <= tx < self.n:
            raise IndexError(f"tx index {tx} out of range [0, {self.n})")
        power = self.mean_rx_dbm[tx].copy()
        if not isinstance(self.fading, NoFading):
            power += self.fading.link_db(event, tx, np.arange(self.n))
        detected = power >= self.threshold_dbm
        detected[tx] = False
        return power, detected

    def __repr__(self) -> str:
        return (
            f"LinkBudget(n={self.n}, tx_power_dbm={self.tx_power_dbm}, "
            f"threshold_dbm={self.threshold_dbm}, pathloss={self.pathloss!r})"
        )
