"""Live neighbour queries over a churning population.

:class:`LiveNeighborView` answers the service's ``GET /near/{ue}``
question — who can UE *x* hear right now, how strongly, and roughly how
far away — directly from the network's link structure filtered by the
current active mask.  It never densifies: one link-CSR row slice per
query.

Ordering is deterministic: neighbours sort by descending PS strength
with ascending-id tie-break, so the same world state always serialises
to the same response bytes (the property the conformance pair and the
request-log replay test pin down).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.network import D2DNetwork


@dataclass(frozen=True)
class Neighbor:
    """One detectable active neighbour of a queried UE."""

    device: int
    power_dbm: float
    distance_m: float


class LiveNeighborView:
    """Per-UE neighbour queries filtered through a live active mask.

    The view holds a *reference* to the caller's mask, not a copy, so
    churn applied by the owning world is visible to the next query
    without any rebuild step.
    """

    def __init__(self, network: D2DNetwork, active_mask: np.ndarray) -> None:
        if active_mask.shape != (network.n,):
            raise ValueError(
                f"active_mask must have shape ({network.n},), "
                f"got {active_mask.shape}"
            )
        self.network = network
        self._active = active_mask

    def near(self, device: int, *, limit: int | None = None) -> list[Neighbor]:
        """Active neighbours of ``device``, strongest first.

        Raises :class:`ValueError` when ``device`` is out of range; the
        caller is responsible for checking activity (an inactive UE has
        no radio presence, which the service maps to a 404).
        """
        n = self.network.n
        if not 0 <= device < n:
            raise ValueError(f"device {device} out of range 0..{n - 1}")
        budget = self.network.sparse_budget
        lo = int(budget.link_indptr[device])
        hi = int(budget.link_indptr[device + 1])
        nbr = budget.link_indices[lo:hi]
        power = budget.link_power_dbm[lo:hi]
        keep = self._active[nbr]
        nbr = nbr[keep]
        power = power[keep]
        # strongest first; ties (impossible on distinct weights, cheap
        # insurance anyway) break toward the lower device id
        order = np.lexsort((nbr, -power))
        if limit is not None:
            order = order[: max(0, int(limit))]
        pos = self.network.positions
        delta = pos[nbr[order]] - pos[device]
        dist = np.hypot(delta[:, 0], delta[:, 1])
        return [
            Neighbor(
                device=int(d),
                power_dbm=float(p),
                distance_m=float(r),
            )
            for d, p, r in zip(nbr[order], power[order], dist)
        ]

    def degree(self, device: int) -> int:
        """Number of active detectable neighbours of ``device``."""
        return len(self.near(device))
