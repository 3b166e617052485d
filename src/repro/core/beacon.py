"""Slotted random-access discovery beaconing.

Besides its synchronization pulse, each device transmits one *discovery
beacon* per oscillator period in a uniformly random slot (the random-
subframe beaconing of [17]; also the classic birthday-protocol schedule
[4]).  A receiver identity-decodes the strongest beacon landing in a slot
when it clears the capture margin over the superposed rest — so in dense
deployments (many devices per slot) weak links decode rarely, and
*complete* pairwise discovery becomes the dominant cost of any mesh-wide
scheme.  The tree-based ST algorithm only needs each device to decode its
heaviest neighbours, which are strong precisely because they are heavy —
the physical root of the paper's scaling advantage.

The simulation runs over the CSR radio graph, vectorized per
slot-cohort: one period costs O(E) array work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs import Observability
from repro.radio.fading import NoFading
from repro.radio.sparse_link import SparseLinkBudget, gather_rows

#: Bucket bounds for per-slot beacon occupancy (transmitters per slot).
SLOT_OCCUPANCY_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0)


@dataclass
class BeaconResult:
    """Outcome of a beacon-discovery run."""

    complete: bool
    periods: int
    time_ms: float
    messages: int
    #: radio-graph edge mask: edge ``tx → rx`` set once receiver ``rx``
    #: identity-decoded sender ``tx``
    decoded: np.ndarray = field(repr=False, default=None)
    #: ordered pairs still missing when the run ended
    missing_pairs: int = 0
    #: post-collision re-beacon transmissions (0 without a FaultPlan)
    retries: int = 0
    #: fault events injected (beacon losses + preamble collisions)
    faults_injected: int = 0


class _BeaconFaultState:
    """Mutable per-run fault bookkeeping of a discovery run.

    Driven purely by the (period index, period start time) pair and the
    deterministic :class:`~repro.faults.plan.FaultPlan`, so two runs over
    the same plan evolve bit-identically.  Collided
    transmitters back off exponentially (``2^streak − 1`` silent periods,
    bounded by ``max_backoff_periods``); their next transmission counts
    as a retry.  Crashed devices fall permanently silent; stalled devices
    neither transmit nor receive while inside their stall window.
    """

    def __init__(self, plan: FaultPlan, n: int) -> None:
        self.plan = plan
        self.backoff_until = np.zeros(n, dtype=np.int64)
        self.streak = np.zeros(n, dtype=np.int64)
        self.pending_retry = np.zeros(n, dtype=bool)
        self.retries = 0
        self.beacon_losses = 0
        self.collisions = 0
        self._ids = np.arange(n, dtype=np.int64)

    def begin_period(
        self, period: int, period_start_ms: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns ``(transmitters, surviving beacons, receiving)`` masks."""
        plan = self.plan
        receiving = ~plan.dead_by(period_start_ms) & ~plan.stalled_at(
            period_start_ms
        )
        tx_mask = receiving & (self.backoff_until <= period)
        self.retries += int((tx_mask & self.pending_retry).sum())
        self.pending_retry &= ~tx_mask
        collided = tx_mask & plan.rach_collided(period, self._ids)
        ok = tx_mask & ~collided
        self.streak[ok] = 0
        if collided.any():
            self.collisions += int(collided.sum())
            self.streak[collided] += 1
            backoff = np.minimum(
                2 ** np.minimum(self.streak[collided], 16) - 1,
                plan.config.max_backoff_periods,
            )
            self.backoff_until[collided] = period + 1 + backoff
            self.pending_retry |= collided
        return tx_mask, ok, receiving

    def lose_beacons(
        self, event: int, tx: np.ndarray, rx: np.ndarray
    ) -> np.ndarray:
        """Per-pair decode-erasure mask for this slot's winners (counted)."""
        lost = self.plan.beacon_lost(event, tx, rx)
        self.beacon_losses += int(np.count_nonzero(lost))
        return lost

    @property
    def injected(self) -> int:
        return self.beacon_losses + self.collisions

    def record(self, obs: Observability | None, labels: dict) -> None:
        if obs is None:
            return
        counter = obs.metrics.counter(
            "faults_injected_total",
            help="fault events injected by the active FaultPlan",
            unit="events",
        )
        if self.beacon_losses:
            counter.inc(self.beacon_losses, kind="beacon_loss", **labels)
        if self.collisions:
            counter.inc(self.collisions, kind="rach_collision", **labels)
        if self.retries:
            obs.metrics.counter(
                "retries_total",
                help="post-collision re-beacon transmissions",
                unit="messages",
            ).inc(self.retries, **labels)


class SparseBeaconDiscovery:
    """Random-slot beaconing over a CSR radio graph — O(E) per period.

    ``required`` and ``decoded`` are boolean masks over the budget's
    *radio graph* edges (edge ``tx → rx`` decoded ⇔ receiver ``rx``
    identity-decoded sender ``tx``).  The radio graph includes every link
    whose mean power is within the fading cap of the threshold, so all
    possible detections — including the sub-threshold interferers that
    decide the capture race — are represented.

    Parameters
    ----------
    budget:
        The CSR radio environment.
    threshold_dbm:
        Detection floor.
    period_slots, slot_ms:
        Beacon period structure (one beacon per device per period).
    capture_margin_db:
        SIR the strongest same-slot beacon needs to decode.
    preambles:
        Orthogonal preamble pool the beacons randomize over.
    listen_duty:
        Fraction of slots each receiver keeps its radio on (power-saving
        duty cycling per the birthday-protocol line of work [4]–[9]);
        1.0 = always listening.  A sleeping receiver decodes nothing that
        slot, trading discovery latency for receive energy.
    fading:
        Per-transmission fading; must be counter-based (a fresh
        ``(event, tx, rx)`` draw per beacon per receiver, one event per
        slot-cohort).  Defaults to the budget's model.
    """

    def __init__(
        self,
        budget: SparseLinkBudget,
        *,
        threshold_dbm: float,
        period_slots: int,
        slot_ms: float = 1.0,
        capture_margin_db: float = 6.0,
        preambles: int = 1,
        listen_duty: float = 1.0,
        fading=None,
    ) -> None:
        if period_slots < 1:
            raise ValueError("period_slots must be >= 1")
        if slot_ms <= 0:
            raise ValueError("slot_ms must be positive")
        if preambles < 1:
            raise ValueError("preambles must be >= 1")
        if not 0.0 < listen_duty <= 1.0:
            raise ValueError(f"listen_duty must be in (0, 1], got {listen_duty}")
        self.budget = budget
        self.n = budget.n
        self.threshold_dbm = float(threshold_dbm)
        self.period_slots = int(period_slots)
        self.slot_ms = float(slot_ms)
        self.capture_margin_db = float(capture_margin_db)
        self.preambles = int(preambles)
        self.listen_duty = float(listen_duty)
        self.fading = fading if fading is not None else budget.fading
        self._hashed_fading = hasattr(self.fading, "link_db")
        if not self._hashed_fading and not isinstance(self.fading, NoFading):
            raise TypeError(
                "SparseBeaconDiscovery needs counter-based fading "
                f"(got {type(self.fading).__name__})"
            )
        self._is_tx = np.zeros(self.n, dtype=bool)  # scratch, reused

    # ------------------------------------------------------------------
    def run(
        self,
        rng: np.random.Generator,
        required: np.ndarray,
        *,
        max_periods: int = 3_000,
        decoded: np.ndarray | None = None,
        obs: Observability | None = None,
        obs_labels: dict[str, str] | None = None,
        faults: FaultPlan | None = None,
    ) -> BeaconResult:
        """Beacon until every required radio-graph edge has been decoded.

        Parameters
        ----------
        required:
            Radio-graph edge mask: receiver ``rx`` must decode sender
            ``tx`` over each marked edge.
        decoded:
            Optional pre-existing decode state to continue from (mutated).
        obs:
            Optional observability bundle: bills ``beacon_tx_total``,
            observes per-slot occupancy, and records a ``neighbor_fill``
            probe sample per period (how much of the required
            neighbour-table is decoded).  ``None`` leaves the loop
            untouched.
        obs_labels:
            Labels attached to the metrics this run records.
        faults:
            Optional :class:`~repro.faults.plan.FaultPlan`.  Injects
            beacon-decode loss, bursty RACH preamble collisions (with
            bounded exponential backoff and retry accounting), and
            crash/stall silence; required pairs touching crashed devices
            are dropped so the loop cannot spin on the unreachable.

        The returned :class:`BeaconResult` carries the decoded edge mask
        in its ``decoded`` field.
        """
        n = self.n
        required = np.asarray(required, dtype=bool).copy()
        if required.shape != self.budget.indices.shape:
            raise ValueError(
                "required must be a radio-graph edge mask of length "
                f"{self.budget.edge_count}"
            )
        if decoded is None:
            decoded = np.zeros(required.size, dtype=bool)
        remaining = int((required & ~decoded).sum())
        required_total = max(int(required.sum()), 1)
        messages = 0
        labels = obs_labels or {}
        bus = obs.bus if obs is not None else None
        if obs is not None:
            tx_counter = obs.metrics.counter(
                "beacon_tx_total",
                help="discovery beacon transmissions",
                unit="messages",
            )
            # bound view: label key resolved once, not per cohort
            occ_hist = obs.metrics.histogram(
                "beacon_slot_occupancy",
                buckets=SLOT_OCCUPANCY_BUCKETS,
                help="simultaneous beacons per occupied slot/preamble",
                unit="transmitters",
            ).bound(**labels)
        else:
            tx_counter = None
            occ_hist = None

        fstate = _BeaconFaultState(faults, n) if faults is not None else None
        period = 0
        period_tx = n
        prev_collisions = 0
        prev_retries = 0
        event = 0  # radio event counter: one per slot-cohort
        while remaining > 0 and period < max_periods:
            period += 1
            # each device picks a random (slot, preamble); only same-slot
            # same-preamble beacons superpose (OFDMA orthogonality).  The
            # draw covers all n devices even under faults so the stream
            # stays aligned with fault-free runs.
            chan = rng.integers(0, self.period_slots * self.preambles, size=n)
            if self.listen_duty < 1.0:
                awake = rng.random((self.period_slots, n)) < self.listen_duty
            else:
                awake = None
            if fstate is None:
                messages += n
                receiving = None
                order = np.argsort(chan, kind="stable")
            else:
                period_start_ms = (period - 1) * self.period_slots * self.slot_ms
                tx_mask, ok_mask, receiving = fstate.begin_period(
                    period, period_start_ms
                )
                period_tx = int(tx_mask.sum())
                messages += period_tx
                dead = faults.dead_by(period_start_ms)
                if dead.any():
                    # timeout discipline: crashed devices can never satisfy
                    # a required pair — drop them instead of spinning
                    budget = self.budget
                    required &= ~(dead[budget.row_ids] | dead[budget.indices])
                live = np.flatnonzero(ok_mask)
                order = live[np.argsort(chan[live], kind="stable")]
            if order.size:
                event += self._process_period(
                    order, chan, awake, receiving, event, decoded, fstate,
                    occ_hist,
                )
            remaining = int((required & ~decoded).sum())
            if obs is not None:
                tx_counter.inc(n, **labels)
                period_end_ms = period * self.period_slots * self.slot_ms
                obs.probes.record(
                    period_end_ms,
                    "neighbor_fill",
                    fill_ratio=1.0 - remaining / required_total,
                    missing_pairs=remaining,
                    periods=period,
                )
                if obs.trace is not None:
                    obs.trace.emit(
                        period_end_ms,
                        "beacon_period",
                        period=period,
                        missing_pairs=remaining,
                        **labels,
                    )
                if bus is not None:
                    bus.publish(
                        "beacon",
                        period_end_ms,
                        labels,
                        period=period,
                        missing_pairs=remaining,
                        fill_ratio=1.0 - remaining / required_total,
                    )
                    if fstate is not None:
                        bus.publish(
                            "rach",
                            period_end_ms,
                            labels,
                            collisions=fstate.collisions - prev_collisions,
                            retries=fstate.retries - prev_retries,
                            transmitters=period_tx,
                        )
                        prev_collisions = fstate.collisions
                        prev_retries = fstate.retries

        if obs is not None:
            obs.metrics.gauge(
                "beacon_missing_pairs",
                help="required (receiver, sender) pairs still undecoded",
                unit="pairs",
            ).set(remaining, **labels)
        if fstate is not None:
            fstate.record(obs, labels)
        return BeaconResult(
            complete=remaining == 0,
            periods=period,
            time_ms=period * self.period_slots * self.slot_ms,
            messages=messages,
            decoded=decoded,
            missing_pairs=remaining,
            retries=fstate.retries if fstate is not None else 0,
            faults_injected=fstate.injected if fstate is not None else 0,
        )

    # ------------------------------------------------------------------
    def _process_period(
        self,
        order: np.ndarray,
        chan: np.ndarray,
        awake: np.ndarray | None,
        receiving: np.ndarray | None,
        event: int,
        decoded: np.ndarray,
        fstate: _BeaconFaultState | None,
        occ_hist,
    ) -> int:
        """Decode one period's slot-cohorts; returns the events consumed.

        ``order`` lists this period's live transmitters sorted (stably)
        by channel; cohorts are its channel groups in ascending channel
        order, and cohort ``c`` uses radio event ``event + c``.

        A whole-period decode (every transmitter's edges gathered at
        once, all capture races resolved by one global lexsort) was
        measured ~3× slower at n = 20 000: at the paper's density a
        period has few occupied channels and therefore large cohorts, so
        the per-cohort numpy calls are already amortized, while the
        whole-period variant pays per-edge event-id hashing and an
        E log E sort (docs/performance.md).
        """
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

    # ------------------------------------------------------------------
    def _decode_cohort(
        self,
        cohort: np.ndarray,
        decoded: np.ndarray,
        awake: np.ndarray | None,
        event: int,
        fstate: _BeaconFaultState | None = None,
    ) -> None:
        """One slot: cohort members transmit simultaneously; decode.

        A receiver decodes the strongest detected beacon when it is alone
        or clears the capture margin over the superposed rest.
        """
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
            if fstate is None:
                decoded[lo + np.flatnonzero(det)] = True
            else:
                pos = np.flatnonzero(det)
                if pos.size:
                    lost = fstate.lose_beacons(event, np.int64(tx), rx[pos])
                    decoded[lo + pos[~lost]] = True
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
        # receiver segments: power descending, lowest tx on ties — the
        # first edge of a segment is the capture winner
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
        # half-duplex: transmitters cannot decode this slot
        is_tx = self._is_tx
        is_tx[cohort] = True
        decodable &= ~is_tx[seg_rx]
        is_tx[cohort] = False
        if awake is not None:
            decodable &= awake[seg_rx]
        if fstate is None:
            decoded[epos_s[seg_starts[decodable]]] = True
        else:
            win = seg_starts[decodable]
            if win.size:
                tx_s = tx_e[order]
                lost = fstate.lose_beacons(event, tx_s[win], rx_s[win])
                decoded[epos_s[win[~lost]]] = True


def top_k_required_csr(budget: SparseLinkBudget, k: int = 1) -> np.ndarray:
    """Required-pairs edge mask: each receiver must decode its ``k``
    heaviest proximity neighbours — the knowledge the ST algorithm's
    first Borůvka phase needs ("in beginning nodes know only weight of
    links to whom they are connected" restricted to the links that
    matter).

    The mask marks the corresponding ``sender → receiver`` radio edges;
    ties (equal weights) break to the lowest neighbour id.  For the
    k = 1 case the ST seed needs, the per-receiver heaviest link is a
    ``maximum.reduceat`` over the link CSR rows and the tie-break a
    masked ``minimum.reduceat`` — O(E) with no global lexsort.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = budget.n
    indptr = budget.link_indptr
    nbr = budget.link_indices  # link graph is symmetric: row = receiver
    w = budget.link_power_dbm
    required = np.zeros(budget.edge_count, dtype=bool)
    if k == 1:
        rows = np.flatnonzero(np.diff(indptr) > 0)
        if rows.size == 0:
            return required
        starts = indptr[rows]
        # the row maximum is one of the row's elements bitwise, so the
        # equality mask selects exactly the argmax candidates
        row_max = np.maximum.reduceat(w, starts)
        is_max = w == np.repeat(row_max, np.diff(indptr)[rows])
        best_nbr = np.minimum.reduceat(np.where(is_max, nbr, n), starts)
        required[budget.edge_position(best_nbr, rows)] = True
        return required
    rx = budget.link_row_ids
    order = np.lexsort((nbr, -w, rx))
    rx_s = rx[order]
    nbr_s = nbr[order]
    rank = np.arange(rx_s.size) - indptr[rx_s]
    sel = rank < min(k, max(n - 1, 1))
    required[budget.edge_position(nbr_s[sel], rx_s[sel])] = True
    return required
