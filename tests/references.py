"""Test helper: independent matrix references for the CSR simulations.

Every simulation runs one execution path — the CSR link layout driven by
whole-array kernels.  The references here recompute pieces of a run from
a *twin* network's dense helper views (same config, so the same
positions, channel keys and random streams) with code that shares
nothing with the CSR kernels: the dense pulse-sync reception
(:class:`DensePulseSyncKernel`), Kruskal's maximum spanning tree and the
node-level message-passing protocol.  Building a twin keeps the network
under test free of dense views, so the tests can also assert it never
densified.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.pulsesync import PulseSyncResult, _PulseSyncBase
from repro.faults.plan import FaultPlan
from repro.oscillator.prc import LinearPRC
from repro.spanningtree.mst import maximum_spanning_tree


class DensePulseSyncKernel(_PulseSyncBase):
    """Pulse-sync run loop with wave reception over dense matrices.

    Each wave takes ``(k, n)`` row slices of the mean-power matrix and
    the boolean coupling mask, adds the hashed fading on the same
    ``(k, n)`` grid, and resolves detection and capture decoding with
    column reductions.  It shares the run loop with the CSR kernel but
    none of its reception code, so a bitwise match between the two is
    evidence for the CSR segment reductions.
    """

    def __init__(
        self, mean_rx_dbm: np.ndarray, adjacency: np.ndarray, prc: LinearPRC, **kwargs
    ) -> None:
        self.mean_rx = np.asarray(mean_rx_dbm, dtype=float)
        self.adjacency = np.asarray(adjacency, dtype=bool)
        super().__init__(self.mean_rx.shape[0], prc, **kwargs)
        self._node_ids = np.arange(self.n, dtype=np.int64)

    def _wave_reception(self, firers, event, need_decoding):
        n = self.n
        power = self.mean_rx[firers]
        if self._hashed_fading:
            power = power + self.fading.link_db(
                event, firers[:, None], self._node_ids[None, :]
            )
        det = (power >= self.threshold_dbm) & self.adjacency[firers]
        counts = det.sum(axis=0)
        any_heard = counts >= 1

        if not need_decoding and self.collision_policy != "capture":
            if self.collision_policy == "tolerant":
                heard = any_heard
            else:  # destructive
                heard = counts == 1
            return heard, np.full(n, -1, dtype=int)

        # identity decoding (capture rule, always)
        masked = np.where(det, power, -np.inf)
        strongest_row = np.argmax(masked, axis=0)
        strongest_pow = masked[strongest_row, np.arange(n)]
        linear = np.where(det, np.power(10.0, power / 10.0), 0.0)
        total = linear.sum(axis=0)
        signal = np.where(any_heard, np.power(10.0, strongest_pow / 10.0), 0.0)
        noise = np.maximum(total - signal, 1e-30)
        with np.errstate(divide="ignore", invalid="ignore"):
            sir_db = 10.0 * np.log10(np.maximum(signal, 1e-300) / noise)
        decodable = any_heard & (
            (counts == 1) | (sir_db >= self.capture_margin_db)
        )
        decoded_sender = np.where(decodable, firers[strongest_row], -1).astype(int)

        if self.collision_policy == "tolerant":
            heard = any_heard
        elif self.collision_policy == "destructive":
            heard = counts == 1
        else:  # capture
            heard = decodable
        return heard, decoded_sender


def never_densified(net: D2DNetwork) -> bool:
    """True while the network's dense helper views were never built."""
    return net._link_budget is None


def dense_mesh_sync(
    config: PaperConfig, stream: str, *, collision_policy: str | None = None
) -> PulseSyncResult:
    """The mesh-wide sync run, replayed on :class:`DensePulseSyncKernel`.

    Same stream, same counter-hashed fading and fault plan as the CSR
    kernel run the simulations make, so the results must agree bitwise.
    """
    twin = D2DNetwork(config)
    lb = twin.link_budget
    kernel = DensePulseSyncKernel(
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
