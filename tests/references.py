"""Test helper: independent matrix references for the CSR simulations.

Every simulation runs one execution path — the CSR link layout driven by
whole-array kernels.  The references here recompute pieces of a run from
a *twin* network's dense helper views (same config, so the same
positions, channel keys and random streams) with code that shares
nothing with the CSR kernels: the dense :class:`~repro.core.pulsesync.
PulseSyncKernel`, Kruskal's maximum spanning tree and the node-level
message-passing protocol.  Building a twin keeps the network under test
free of dense views, so the tests can also assert it never densified.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.pulsesync import PulseSyncKernel, PulseSyncResult
from repro.faults.plan import FaultPlan
from repro.oscillator.prc import LinearPRC
from repro.spanningtree.mst import maximum_spanning_tree


def never_densified(net: D2DNetwork) -> bool:
    """True while the network's dense helper views were never built."""
    return net._link_budget is None


def dense_mesh_sync(
    config: PaperConfig, stream: str, *, collision_policy: str | None = None
) -> PulseSyncResult:
    """The mesh-wide sync run, replayed on the dense kernel.

    Same stream, same counter-hashed fading and fault plan as the CSR
    kernel run the simulations make, so the results must agree bitwise.
    """
    twin = D2DNetwork(config)
    lb = twin.link_budget
    kernel = PulseSyncKernel(
        lb.mean_rx_dbm,
        twin.adjacency,
        LinearPRC.from_dissipation(config.dissipation, config.epsilon),
        period_ms=config.period_ms,
        threshold_dbm=config.threshold_dbm,
        refractory_ms=config.refractory_ms,
        sync_window_ms=config.sync_window_ms,
        fading=lb.fading,
        collision_policy=collision_policy or config.collision_policy,
    )
    return kernel.run(
        twin.streams.stream(stream),
        max_time_ms=config.max_time_ms,
        require_sync=True,
        faults=FaultPlan.from_config(config),
    )


def survivors_mst(
    config: PaperConfig, dead: np.ndarray | None = None
) -> list[tuple[int, int]]:
    """Kruskal maximum spanning tree over the survivors' dense views."""
    twin = D2DNetwork(config)
    adj = twin.adjacency.copy()
    if dead is not None and dead.any():
        adj[dead, :] = False
        adj[:, dead] = False
    return maximum_spanning_tree(twin.weights, adj)
