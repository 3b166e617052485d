"""Test helper: independent matrix references for the CSR simulations.

Every simulation runs one execution path — the CSR link layout driven by
whole-array kernels.  The references here recompute pieces of a run from
a *twin* network's dense helper views (same config, so the same
positions, channel keys and random streams) with code that shares
nothing with the CSR kernels: the dense pulse-sync reception
(:class:`DensePulseSyncKernel`), the per-cohort beacon decode
(:class:`PerCohortBeaconDiscovery`), Kruskal's maximum spanning tree and
the node-level message-passing protocol.  Building a twin keeps the network
under test free of dense views, so the tests can also assert it never
densified.
"""

from __future__ import annotations

import numpy as np

from repro.core.beacon import SparseBeaconDiscovery
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.pulsesync import PulseSyncResult, _PulseSyncBase
from repro.faults.plan import FaultPlan
from repro.oscillator.prc import LinearPRC
from repro.radio.sparse_link import gather_rows
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


class PerCohortBeaconDiscovery(SparseBeaconDiscovery):
    """Beacon run loop with every slot-cohort decoded on its own.

    Each cohort hashes its own fading draws (one ``link_db`` call per
    cohort) and races *every* receiver of its transmitters' edges —
    decoded or not — with a ``(tx, −power, rx)`` lexsort.  It shares the
    run loop with the kernel but none of its decode, so a bitwise match
    is evidence that the kernel's singleton pass, per-period subkeys and
    settled-receiver skip change nothing.
    """

    def _process_period(
        self, order, chan, awake, receiving, event, decoded, fstate, occ_hist
    ) -> int:
        sorted_chan = chan[order]
        boundaries = np.nonzero(np.diff(sorted_chan))[0] + 1
        cohorts = np.split(order, boundaries)
        starts = np.concatenate(([0], boundaries))
        for offset, (cohort, start) in enumerate(zip(cohorts, starts)):
            slot = int(sorted_chan[start]) // self.preambles
            awake_row = awake[slot] if awake is not None else None
            if receiving is not None:
                awake_row = (
                    receiving if awake_row is None else awake_row & receiving
                )
            if occ_hist is not None:
                occ_hist.observe(cohort.size)
            self._decode_cohort(
                cohort, decoded, awake_row, event + offset, fstate
            )
        return len(cohorts)

    def _decode_cohort(self, cohort, decoded, awake, event, fstate) -> None:
        budget = self.budget
        if cohort.size == 1:
            tx = int(cohort[0])
            lo = budget.indptr[tx]
            hi = budget.indptr[tx + 1]
            rx = budget.indices[lo:hi]
            power = budget.power_dbm[lo:hi]
            if self._hashed_fading:
                power = power + self.fading.link_db(event, np.int64(tx), rx)
            det = power >= self.threshold_dbm
            if awake is not None:
                det &= awake[rx]
            pos = np.flatnonzero(det)
            if fstate is not None and pos.size:
                lost = fstate.lose_beacons(event, np.int64(tx), rx[pos])
                pos = pos[~lost]
            decoded[lo + pos] = True
            return
        epos, tx_e = gather_rows(budget.indptr, cohort)
        rx_e = budget.indices[epos]
        power_e = budget.power_dbm[epos]
        if self._hashed_fading:
            power_e = power_e + self.fading.link_db(event, tx_e, rx_e)
        det = power_e >= self.threshold_dbm
        epos = epos[det]
        tx_e = tx_e[det]
        rx_e = rx_e[det]
        power_e = power_e[det]
        if rx_e.size == 0:
            return
        order = np.lexsort((tx_e, -power_e, rx_e))
        rx_s = rx_e[order]
        pw_s = power_e[order]
        epos_s = epos[order]
        seg_starts = np.flatnonzero(
            np.concatenate(([True], rx_s[1:] != rx_s[:-1]))
        )
        seg_rx = rx_s[seg_starts]
        seg_counts = np.diff(np.concatenate((seg_starts, [rx_s.size])))
        signal = np.power(10.0, pw_s[seg_starts] / 10.0)
        total = np.add.reduceat(np.power(10.0, pw_s / 10.0), seg_starts)
        noise = np.maximum(total - signal, 1e-30)
        with np.errstate(divide="ignore", invalid="ignore"):
            sir_db = 10.0 * np.log10(np.maximum(signal, 1e-300) / noise)
        decodable = (seg_counts == 1) | (sir_db >= self.capture_margin_db)
        is_tx = self._is_tx
        is_tx[cohort] = True
        decodable &= ~is_tx[seg_rx]
        is_tx[cohort] = False
        if awake is not None:
            decodable &= awake[seg_rx]
        win = seg_starts[decodable]
        if fstate is not None and win.size:
            lost = fstate.lose_beacons(event, tx_e[order][win], rx_s[win])
            win = win[~lost]
        decoded[epos_s[win]] = True


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
