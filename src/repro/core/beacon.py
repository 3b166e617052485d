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

The simulation runs over the CSR radio graph: one period costs at most
O(E) array work, and only the races some still-undecoded required edge
depends on are run.  Singleton cohorts decode in one pass; the
multi-transmitter cohorts race in cache-sized blocks of consecutive
cohorts, each block one call of the shared capture rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.obs import Observability
from repro.radio.fading import NoFading
from repro.radio.interference import capture
from repro.radio.sparse_link import SparseLinkBudget, csr_row_argmax, gather_rows
from repro.radio.spatial import DEFAULT_CHUNK_PAIRS

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
    #: identity-decoded sender ``tx``.  Exact on required edges and on
    #: edges decoded on entry; elsewhere it may miss decodes, because
    #: races no open required edge depends on are not run
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
        self._hashed_fading = hasattr(self.fading, "keyed_db")
        if not self._hashed_fading and not isinstance(self.fading, NoFading):
            raise TypeError(
                "SparseBeaconDiscovery needs counter-based fading "
                f"(got {type(self.fading).__name__})"
            )
        # (n,) scratch: each transmitter's cohort while its block races
        self._tx_cohort = np.full(self.n, -1, dtype=np.int64)

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
        invariants: InvariantChecker | None = None,
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
        invariants:
            Optional :class:`~repro.faults.invariants.InvariantChecker`;
            checks half-duplex after every period (no receiver decodes a
            beacon sent on the channel it transmitted on itself).

        The returned :class:`BeaconResult` carries the decoded edge mask
        in its ``decoded`` field, exact on ``required`` and on the edges
        decoded on entry (see :meth:`_process_period`).
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
        # the required edges still undecoded: the only work a period races
        # (beacon loss counts every winner's erasure draw, so it races all)
        open_ = required & ~decoded
        race_all = faults is not None and faults.config.beacon_loss > 0
        remaining = int(np.count_nonzero(open_))
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
                    open_ &= required
                live = np.flatnonzero(ok_mask)
                order = live[np.argsort(chan[live], kind="stable")]
            if invariants is not None:
                before = decoded.copy()
            if order.size:
                event += self._process_period(
                    order, chan, awake, receiving, event, decoded,
                    None if race_all else open_, fstate, occ_hist,
                )
            if invariants is not None:
                channel = np.full(n, -1, dtype=np.int64)
                channel[order] = chan[order]
                new = np.flatnonzero(decoded & ~before)
                invariants.check_half_duplex(
                    period,
                    channel,
                    self.budget.row_ids[new],
                    self.budget.indices[new],
                )
            open_ = required & ~decoded
            remaining = int(np.count_nonzero(open_))
            if obs is not None:
                tx_counter.inc(period_tx, **labels)
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
        open_: np.ndarray | None,
        fstate: _BeaconFaultState | None,
        occ_hist,
    ) -> int:
        """Decode one period's slot-cohorts; returns the events consumed.

        ``order`` lists this period's live transmitters sorted (stably)
        by channel; cohorts are its channel groups in ascending channel
        order, and cohort ``c`` uses radio event ``event + c``.
        ``open_`` marks the required edges still undecoded at the period
        start (``None`` races everything).  The period does only the
        work an open edge depends on:

        * the fading subkey of every cohort's event is derived once;
        * a cohort none of whose transmitters has an open out-edge is
          skipped;
        * the singleton cohorts' open edges decode in one vectorized
          pass — with one transmitter there is no capture race, and the
          receiver is never the transmitter, so half-duplex is vacuous;
        * the other cohorts are raced in blocks of consecutive cohorts
          holding at most ``DEFAULT_CHUNK_PAIRS`` edges (a larger cohort
          is a block of its own), so each block's sort stays in cache;
          only ``(cohort, receiver)`` segments with an open edge are
          raced, with all of their edges (see :meth:`_race_block`).

        On required edges and on edges decoded on entry this is bitwise
        the full per-cohort decode; elsewhere it decodes a subset of it.
        Each device transmits in one cohort per period, so cohorts own
        disjoint edges, their decode order does not matter and ``open_``
        stays exact all period.  A race's only effect is
        ``decoded[winner] = True``; a segment without an open edge can
        only set a bit that is already set or not required, which no
        output reads.  Fading and erasures are counter-hashed, so a
        skipped draw shifts no other, and a raced segment keeps every
        edge it had, so its order and sums are unchanged.  The exception
        is a plan with ``beacon_loss > 0``: it counts every winner's
        erasure draw, so such runs pass ``open_=None``.
        """
        sorted_chan = chan[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_chan[1:] != sorted_chan[:-1]))
        )
        sizes = np.diff(np.append(starts, order.size))
        n_cohorts = starts.size
        if occ_hist is not None:
            occ_hist.observe_many(sizes)
        slots = sorted_chan[starts] // self.preambles
        subkeys = (
            self.fading.event_subkeys(event + np.arange(n_cohorts))
            if self._hashed_fading
            else None
        )
        if open_ is None:
            active = np.ones(n_cohorts, dtype=bool)
        else:
            # a cohort is open when one of its transmitters has an open edge
            tx_open = np.zeros(self.n, dtype=bool)
            tx_open[self.budget.row_ids[np.flatnonzero(open_)]] = True
            active = np.logical_or.reduceat(tx_open[order], starts)
        single = np.flatnonzero((sizes == 1) & active)
        if single.size:
            self._decode_singletons(
                order[starts[single]], single, slots, subkeys, awake,
                receiving, event, decoded, open_, fstate,
            )
        multi = (sizes > 1) & active
        if not multi.any():
            return n_cohorts
        in_multi = np.repeat(multi, sizes)
        members = order[in_multi]
        member_c = np.repeat(np.arange(n_cohorts), sizes)[in_multi]
        indptr = self.budget.indptr
        edge_cum = np.concatenate(
            ([0], np.cumsum(indptr[members + 1] - indptr[members]))
        )
        # each multi cohort's first member and edge offset, plus the ends
        first = np.concatenate(([0], np.cumsum(sizes[multi])))
        bounds = edge_cum[first]
        i, k = 0, first.size - 1
        while i < k:
            # the most cohorts from i that fit a block, or i alone
            j = np.searchsorted(bounds, bounds[i] + DEFAULT_CHUNK_PAIRS, "right")
            j = max(int(j) - 1, i + 1)
            block = slice(first[i], first[j])
            self._race_block(
                members[block], member_c[block], slots, subkeys, awake,
                receiving, event, decoded, open_, fstate,
            )
            i = j
        return n_cohorts

    # ------------------------------------------------------------------
    def _decode_singletons(
        self,
        tx: np.ndarray,
        cohort_ids: np.ndarray,
        slots: np.ndarray,
        subkeys: np.ndarray | None,
        awake: np.ndarray | None,
        receiving: np.ndarray | None,
        event: int,
        decoded: np.ndarray,
        open_: np.ndarray | None,
        fstate: _BeaconFaultState | None,
    ) -> None:
        """Every lone transmitter of the period at once: each of its
        open edges (all of them when ``open_`` is ``None``) decodes when
        the faded power clears the threshold."""
        budget = self.budget
        indptr = budget.indptr
        epos, tx_e = gather_rows(indptr, tx)
        c_e = np.repeat(cohort_ids, indptr[tx + 1] - indptr[tx])
        if open_ is not None:
            keep = np.flatnonzero(open_[epos])
            epos, tx_e, c_e = epos[keep], tx_e[keep], c_e[keep]
        rx_e = budget.indices[epos]
        power = budget.power_dbm[epos]
        if subkeys is not None:
            power = power + self.fading.keyed_db(subkeys[c_e], tx_e, rx_e)
        det = power >= self.threshold_dbm
        if awake is not None:
            det &= awake[slots[c_e], rx_e]
        if receiving is not None:
            det &= receiving[rx_e]
        pos = np.flatnonzero(det)
        if fstate is not None and pos.size:
            lost = fstate.lose_beacons(event + c_e[pos], tx_e[pos], rx_e[pos])
            pos = pos[~lost]
        decoded[epos[pos]] = True

    # ------------------------------------------------------------------
    def _race_block(
        self,
        members: np.ndarray,
        member_c: np.ndarray,
        slots: np.ndarray,
        subkeys: np.ndarray | None,
        awake: np.ndarray | None,
        receiving: np.ndarray | None,
        event: int,
        decoded: np.ndarray,
        open_: np.ndarray | None,
        fstate: _BeaconFaultState | None,
    ) -> None:
        """Consecutive multi-transmitter cohorts at once (``members`` are
        their transmitters, ``member_c`` each one's cohort): every
        ``(cohort, receiver)`` segment decodes the strongest detected
        beacon when it is alone or clears the capture margin over the
        superposed rest.

        Edges are keyed ``cohort · n + receiver``.  Given ``open_``, a
        stable argsort of the keys (a merge of the already sorted CSR
        rows) groups the segments, and only those with an open edge are
        hashed and raced, each with all of its edges.
        """
        budget = self.budget
        n = self.n
        indptr = budget.indptr
        epos, tx_e = gather_rows(indptr, members)
        c_e = np.repeat(member_c, indptr[members + 1] - indptr[members])
        rx_e = budget.indices[epos]
        key = c_e * n + rx_e
        # arrays are filtered through integer positions: one mask scan,
        # then cheap gathers (boolean-indexing each array costs ~3× more)
        if open_ is not None:
            is_open = open_[epos]
            if not is_open.any():
                return
            if not is_open.all():
                perm = np.argsort(key, kind="stable")
                key = key[perm]
                seg = np.flatnonzero(
                    np.concatenate(([True], key[1:] != key[:-1]))
                )
                seg_open = np.logical_or.reduceat(is_open[perm], seg)
                keep = np.flatnonzero(
                    np.repeat(seg_open, np.diff(np.append(seg, key.size)))
                )
                key, keep = key[keep], perm[keep]
                epos, tx_e, c_e, rx_e = epos[keep], tx_e[keep], c_e[keep], rx_e[keep]
        power_e = budget.power_dbm[epos]
        if subkeys is not None:
            power_e = power_e + self.fading.keyed_db(subkeys[c_e], tx_e, rx_e)
        det = np.flatnonzero(power_e >= self.threshold_dbm)
        order, starts, _, decodable = capture(
            key[det], tx_e[det], power_e[det], self.capture_margin_db
        )
        win = det[order[starts]]
        seg_c, seg_rx = c_e[win], rx_e[win]
        # half-duplex: a transmitter cannot decode its own cohort's slot
        tx_cohort = self._tx_cohort
        tx_cohort[members] = member_c
        decodable &= tx_cohort[seg_rx] != seg_c
        tx_cohort[members] = -1
        if awake is not None:
            decodable &= awake[slots[seg_c], seg_rx]
        if receiving is not None:
            decodable &= receiving[seg_rx]
        win = win[decodable]
        if fstate is not None and win.size:
            lost = fstate.lose_beacons(event + c_e[win], tx_e[win], rx_e[win])
            win = win[~lost]
        decoded[epos[win]] = True


def top_k_required_csr(budget: SparseLinkBudget, k: int = 1) -> np.ndarray:
    """Required-pairs edge mask: each receiver must decode its ``k``
    heaviest proximity neighbours — the knowledge the ST algorithm's
    first Borůvka phase needs ("in beginning nodes know only weight of
    links to whom they are connected" restricted to the links that
    matter).

    The mask marks the corresponding ``sender → receiver`` radio edges;
    ties (equal weights) break to the lowest neighbour id.  For the
    k = 1 case the ST seed needs, the per-receiver heaviest link is
    :func:`~repro.radio.sparse_link.csr_row_argmax` over the link CSR
    rows — O(E) with no global lexsort.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = budget.n
    indptr = budget.link_indptr
    nbr = budget.link_indices  # link graph is symmetric: row = receiver
    w = budget.link_power_dbm
    required = np.zeros(budget.edge_count, dtype=bool)
    if k == 1:
        rows, best_nbr, _ = csr_row_argmax(indptr, nbr, w)
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
