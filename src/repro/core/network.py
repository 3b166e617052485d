"""D2D network assembly: placement, channel, proximity graph, weights.

:class:`D2DNetwork` turns a :class:`~repro.core.config.PaperConfig` into
the concrete simulation inputs:

* uniform device placement in the square area,
* a link budget over the configured channel,
* the proximity graph ``G(V, E)`` (edges where mean PS power clears the
  −95 dBm threshold),
* the PS-strength edge weights ("weight of edge is directly proportional
  to PS strength observed by nodes", §IV).

Construction is grid candidate generation plus a CSR
:class:`~repro.radio.sparse_link.SparseLinkBudget` (``sparse_budget``);
nothing of size n² is allocated, and every simulation kernel consumes
the CSR directly.  Channel randomness is counter-based
(:mod:`repro.radio.chanhash`) — shadowing a pure function of
``(key, link)``, fading of ``(key, event, tx, rx)`` — so the CSR link
powers are bitwise the entries of the equivalent dense matrices.
:func:`channel_budget` is the one place a config becomes a channel over
positions.

The dense-matrix views (``link_budget``, ``adjacency``, ``weights``) are
the one explicit dense helper, for analysis, plotting and the matrix
GHS/Borůvka functions at small n: on first touch they materialize an
O(n²) :class:`~repro.radio.link.LinkBudget` from the positions and
channel keys the CSR was built from.  Simulation hot paths never touch
them.

Disconnected placements are repaired by re-drawing (documented option) so
the spanning-tree algorithms always have a spanning tree to find; the
number of re-draws is recorded for honesty in sweep outputs.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core.config import PaperConfig
from repro.obs import active_span
from repro.radio.fading import HashedRayleighFading, NoFading
from repro.radio.link import LinkBudget
from repro.radio.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    PaperPathLoss,
)
from repro.radio.rssi import RSSIRanging
from repro.radio.shadowing import HashedShadowing, NoShadowing
from repro.radio.sparse_link import SparseLinkBudget
from repro.sim.random import RandomStreams

#: Give up re-drawing after this many disconnected placements.
MAX_PLACEMENT_ATTEMPTS = 50


def _pathloss_for(config: PaperConfig):
    if config.pathloss_model == "paper":
        return PaperPathLoss()
    if config.pathloss_model == "logdistance":
        return LogDistancePathLoss(
            exponent=config.rssi_exponent,
            reference_loss_db=config.rssi_reference_loss_db,
            reference_distance_m=config.rssi_reference_distance_m,
        )
    if config.pathloss_model == "freespace":
        return FreeSpacePathLoss()
    raise ValueError(f"unknown pathloss model {config.pathloss_model!r}")


def channel_budget(
    config: PaperConfig,
    positions: np.ndarray,
    shadow_key: int,
    fading_key: int,
    budget_type: type = SparseLinkBudget,
):
    """The configured channel over ``positions``.

    Path loss per ``config.pathloss_model``, hashed shadowing (σ and clip
    from the config) keyed on ``shadow_key`` and hashed Rayleigh fading
    keyed on ``fading_key``; ``NoShadowing``/``NoFading`` when the config
    turns them off.  ``budget_type`` picks the CSR budget (default) or
    the dense :class:`~repro.radio.link.LinkBudget` view; both hold the
    same values for the same keys.
    """
    if config.shadowing_sigma_db > 0:
        shadowing = HashedShadowing(
            config.shadowing_sigma_db,
            shadow_key,
            clip_sigma=config.shadow_clip_sigma,
        )
    else:
        shadowing = NoShadowing()
    if config.fading_model == "rayleigh":
        fading = HashedRayleighFading(fading_key)
    else:
        fading = NoFading()
    return budget_type(
        positions,
        _pathloss_for(config),
        tx_power_dbm=config.tx_power_dbm,
        threshold_dbm=config.threshold_dbm,
        shadowing=shadowing,
        fading=fading,
    )


class D2DNetwork:
    """Concrete network instance for one (config, seed) pair.

    Parameters
    ----------
    config:
        Scenario parameters.
    streams:
        Random-stream universe; derived from ``config.seed`` when omitted.
    require_connected:
        Re-draw placements until the proximity graph is connected
        (default True — both algorithms need a spanning tree to exist).
    """

    def __init__(
        self,
        config: PaperConfig,
        streams: RandomStreams | None = None,
        *,
        require_connected: bool = True,
    ) -> None:
        self.config = config
        self.streams = streams if streams is not None else RandomStreams(config.seed)
        self.placement_attempts = 0

        placement_rng = self.streams.stream("placement")
        shadow_rng = self.streams.stream("shadowing")
        # one fading key up front, then (positions, shadow key) per attempt
        self.fading_key = int(self.streams.stream("fading").integers(0, 2**63))
        with active_span("build", n=config.n_devices):
            for _attempt in range(MAX_PLACEMENT_ATTEMPTS):
                self.placement_attempts += 1
                positions = placement_rng.uniform(
                    0.0, config.area_side_m, size=(config.n_devices, 2)
                )
                shadow_key = int(shadow_rng.integers(0, 2**63))
                budget = channel_budget(
                    config, positions, shadow_key, self.fading_key
                )
                if not require_connected:
                    break
                with active_span("build.connectivity"):
                    if budget.is_connected():
                        break
            else:
                raise RuntimeError(
                    f"could not draw a connected topology in "
                    f"{MAX_PLACEMENT_ATTEMPTS} attempts "
                    f"(n={config.n_devices}, side={config.area_side_m:.0f} m)"
                )

        self.positions = positions
        self.shadow_key = shadow_key
        self.sparse_budget = budget
        self._link_budget: LinkBudget | None = None
        self._adjacency: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self.ranging = RSSIRanging(
            LogDistancePathLoss(
                exponent=config.rssi_exponent,
                reference_loss_db=config.rssi_reference_loss_db,
                reference_distance_m=config.rssi_reference_distance_m,
            ),
            tx_power_dbm=config.tx_power_dbm,
            sigma_db=config.shadowing_sigma_db,
        )

    # ------------------------------------------------------------------
    def _densify(self) -> None:
        """Materialize the dense matrix views (O(n²) time and memory).

        Same positions, same hashed channel keys, so every entry equals
        the CSR value for the same link bitwise.
        """
        budget = channel_budget(
            self.config, self.positions, self.shadow_key, self.fading_key,
            LinkBudget,
        )
        adjacency = budget.adjacency()
        self._link_budget = budget
        self._adjacency = adjacency & adjacency.T  # symmetric detectability
        np.fill_diagonal(self._adjacency, False)
        # PS-strength weights: mean of the two directions' rx power
        self._weights = 0.5 * (budget.mean_rx_dbm + budget.mean_rx_dbm.T)

    @property
    def link_budget(self) -> LinkBudget:
        """Dense link budget (materialized on first touch)."""
        if self._link_budget is None:
            self._densify()
        return self._link_budget

    @property
    def adjacency(self) -> np.ndarray:
        """Dense boolean proximity matrix (materialized on first touch)."""
        if self._adjacency is None:
            self._densify()
        return self._adjacency

    @property
    def weights(self) -> np.ndarray:
        """Dense PS-strength weight matrix (materialized on first touch)."""
        if self._weights is None:
            self._densify()
        return self._weights

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.config.n_devices

    def graph(self) -> nx.Graph:
        """The proximity graph with PS-strength edge weights."""
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        sb = self.sparse_budget
        upper = sb.link_row_ids < sb.link_indices
        for u, v, w in zip(
            sb.link_row_ids[upper].tolist(),
            sb.link_indices[upper].tolist(),
            sb.link_power_dbm[upper].tolist(),
        ):
            g.add_edge(u, v, weight=w)
        return g

    def degree_stats(self) -> dict[str, float]:
        """Mean/min/max degree of the proximity graph."""
        deg = self.sparse_budget.degrees()
        return {
            "mean": float(deg.mean()),
            "min": int(deg.min()),
            "max": int(deg.max()),
        }

    def hop_diameter(self) -> int:
        """Hop diameter of the proximity graph."""
        return int(nx.diameter(self.graph()))

    def true_distances(self) -> np.ndarray:
        return self.link_budget.distance_m

    def __repr__(self) -> str:
        return (
            f"D2DNetwork(n={self.n}, side={self.config.area_side_m:.0f} m, "
            f"attempts={self.placement_attempts})"
        )
