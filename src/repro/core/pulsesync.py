"""Vectorized event-driven pulse-coupled synchronization kernel.

This is the hot loop of both algorithms: a population of phase
oscillators (eqs 3–4) firing Proximity Signals over a radio graph, with
per-transmission fading and same-slot collision handling.  It advances
fire-instant to fire-instant (no per-slot stepping) and handles the
Mirollo–Strogatz *avalanche* — a pulse pushing receivers over threshold so
they fire in the same instant — as successive **waves**:

wave 0
    the oscillators whose phase naturally reached threshold;
wave k+1
    oscillators pushed to threshold by wave k's pulses.

Within one instant all transmissions share the slot and codec, so a
receiver integrates **at most one** phase jump per instant (the waves'
preambles superpose into a single detectable PS) — without this cap the
avalanche would recurse through the whole network in zero time, which no
radio can do.

The kernel models **pulse detection** only (energy): identical
preambles superpose constructively, so under the default ``tolerant``
policy any detected superposition counts as one received pulse.
*Identity decoding* — learning who transmitted, under the capture effect
— is the beacon channel's job (:mod:`repro.core.beacon`); the two share
one capture rule, :func:`repro.radio.interference.capture`, which the
kernel's ``"capture"`` policy applies to pulses.

The simulation kernel is :class:`SparsePulseSyncKernel`: a CSR coupling
graph, O(edges-of-wave) per wave via segment reductions, with scratch
arrays reused across waves.  Fading is counter-based
(:class:`~repro.radio.fading.HashedRayleighFading`): every value is a
pure function of ``(key, event, tx, rx)``, with one radio event per
avalanche wave.  The run loop lives in :class:`_PulseSyncBase`, whose
one hook, :meth:`_PulseSyncBase._wave_reception`, is also the seam for
the dense reference the parity tests replay against.  Nothing of size
n² is ever allocated.

The kernel is pure NumPy per wave (no per-node Python loops), following
the HPC guide's vectorization rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.obs import Observability
from repro.obs.probes import PROBE_INTERVAL_MS
from repro.oscillator.prc import LinearPRC
from repro.oscillator.sync_metrics import (
    circular_spread,
    count_sync_groups,
    order_parameter,
)
from repro.radio.fading import NoFading
from repro.radio.interference import POLICIES, capture
from repro.radio.sparse_link import csr_from_edges, gather_rows

#: Fire times closer than this (ms) are simultaneous (one instant).
TIE_EPS = 1e-9

#: Per-instant observer signature: ``(instant_index, time_ms, phases)``.
PhaseHook = Callable[[int, float, np.ndarray], None]

#: Bucket bounds (ms) for the sync-error histogram; the paper's sync
#: window is 2 ms and periods are O(100 ms).
SYNC_ERROR_BUCKETS_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

#: Bucket bounds for avalanche wave sizes (simultaneous transmitters).
WAVE_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass
class PulseSyncResult:
    """Outcome of one synchronization run."""

    converged: bool
    time_ms: float
    messages: int
    fires: int
    instants: int
    final_spread_ms: float
    #: time the sync window was met (NaN if never)
    sync_time_ms: float = float("nan")
    #: phases (fraction of period elapsed) at the end; full-length array
    #: with NaN at inactive nodes
    final_phase: np.ndarray | None = field(repr=False, default=None)


class _PulseSyncBase:
    """Shared avalanche run loop; subclasses supply :meth:`_wave_reception`.

    The loop advances a radio **event counter** — one event per avalanche
    wave — and hands it to the reception hook.  Counter-based fading
    models key their draws on it, so a channel realization is a pure
    function of the wave's identity.
    """

    def __init__(
        self,
        n: int,
        prc: LinearPRC,
        *,
        period_ms: float,
        threshold_dbm: float,
        refractory_ms: float = 1.0,
        sync_window_ms: float = 2.0,
        fading=None,
        collision_policy: str = "tolerant",
        capture_margin_db: float = 6.0,
    ) -> None:
        if period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if collision_policy not in POLICIES:
            raise ValueError(f"unknown collision policy {collision_policy!r}")
        self.n = int(n)
        self.prc = prc
        self.period_ms = float(period_ms)
        self.threshold_dbm = float(threshold_dbm)
        self.refractory_ms = float(refractory_ms)
        self.sync_window_ms = float(sync_window_ms)
        self.fading = fading if fading is not None else NoFading()
        self.collision_policy = collision_policy
        self.capture_margin_db = float(capture_margin_db)
        self._hashed_fading = hasattr(self.fading, "link_db")
        if not self._hashed_fading and not isinstance(self.fading, NoFading):
            raise TypeError(
                "the pulse-sync kernel needs counter-based fading "
                "(HashedRayleighFading or NoFading), got "
                f"{type(self.fading).__name__}"
            )

    def _wave_reception(self, firers: np.ndarray, event: int) -> np.ndarray:
        """Resolve one wave: the boolean pulse-detection vector ``heard[n]``
        under the configured collision policy."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run(
        self,
        rng: np.random.Generator,
        *,
        active: np.ndarray | None = None,
        initial_phases: np.ndarray | None = None,
        start_time_ms: float = 0.0,
        max_time_ms: float = 300_000.0,
        obs: Observability | None = None,
        obs_labels: dict[str, str] | None = None,
        faults: FaultPlan | None = None,
        invariants: InvariantChecker | None = None,
        phase_hook: "PhaseHook | None" = None,
    ) -> PulseSyncResult:
        """Run until every active device fires within the sync window (or
        time runs out).

        Parameters
        ----------
        initial_phases:
            Fractions of the period already elapsed (phase 0.9 fires
            soon); drawn uniformly when omitted.
        obs:
            Optional :class:`~repro.obs.Observability` bundle.  When set,
            the kernel bills ``ps_tx_total``, observes wave sizes and the
            sync-error spread, records a ``sync`` probe sample (order
            parameter, group count, spread, fires) about every
            ``PROBE_INTERVAL_MS`` of simulated time, and emits ``ps_tx``
            and ``crash`` events to the bundle's trace recorder (if
            any).  When ``None`` (the default) the hot loop is
            untouched.
        obs_labels:
            Labels attached to every metric the kernel records (e.g.
            ``{"algorithm": "st", "stage": "trim"}``).
        faults:
            Optional :class:`~repro.faults.plan.FaultPlan`.  Applies
            per-device clock drift (individual free-running periods),
            crash schedules (a crashed oscillator falls permanently
            silent and leaves the active set), stall windows (the clock
            freezes for the stall duration and the device is deaf while
            frozen) and per-(event, receiver) PS loss.  ``None`` leaves
            the loop byte-identical to before.
        invariants:
            Optional :class:`~repro.faults.invariants.InvariantChecker`;
            when set, raw phases are validated against ``[0, 1)`` after
            every avalanche instant (stall-frozen clocks excluded).
        phase_hook:
            Optional ``(instant_index, time_ms, phases)`` observer called
            after every avalanche instant with the full-length phase
            vector (NaN at inactive nodes).  Pure observation — the hook
            sees copies derived from loop state and the loop draws no
            randomness for it, so enabling it cannot perturb the run.
            The conformance layer uses it to record per-round phase
            digests for golden traces; it is also the way to sample a
            convergence trajectory without an obs bundle.
        """
        n = self.n
        if active is None:
            active = np.ones(n, dtype=bool)
        else:
            active = np.asarray(active, dtype=bool)
            if active.shape != (n,):
                raise ValueError(f"active must have shape ({n},)")
        if faults is not None:
            active = active.copy()  # crash handling deactivates in place
        n_active = int(active.sum())
        if n_active == 0:
            raise ValueError("at least one node must be active")

        if initial_phases is None:
            phases = rng.uniform(0.0, 1.0, size=n)
        else:
            phases = np.asarray(initial_phases, dtype=float)
            if phases.shape != (n,):
                raise ValueError(f"initial_phases must have shape ({n},)")
            if np.any((phases[active] < 0) | (phases[active] >= 1.0)):
                raise ValueError("phases must lie in [0, 1)")

        # per-device free-running period; the no-drift broadcast view is
        # bitwise identical to the scalar arithmetic it replaces
        if faults is not None and faults.has_drift:
            period_of = self.period_ms * faults.period_factor
        else:
            period_of = np.broadcast_to(np.float64(self.period_ms), (n,))

        inactive = ~active
        next_fire = start_time_ms + (1.0 - phases) * period_of
        next_fire[inactive] = np.inf
        last_fire = np.full(n, -np.inf)
        refractory_until = np.full(n, -np.inf)
        fired_once = np.zeros(n, dtype=bool)

        messages = 0
        fires = 0
        instants = 0
        event = 0
        deadline = start_time_ms + max_time_ms
        trace = obs.trace if obs is not None else None
        bus = obs.bus if obs is not None else None
        labels = obs_labels or {}
        crash_count = 0
        stall_count = 0
        ps_loss_count = 0
        if faults is not None:
            crash_time = faults.crash_time_ms
            stall_start = faults.stall_start_ms
            stall_end = faults.stall_end_ms
            stall_applied = np.zeros(n, dtype=bool)
            ids_u64 = np.arange(n, dtype=np.uint64)

        def _record_faults() -> None:
            if obs is None or faults is None:
                return
            counter = obs.metrics.counter(
                "faults_injected_total",
                help="fault events injected by the active FaultPlan",
                unit="events",
            )
            if crash_count:
                counter.inc(crash_count, kind="crash", **labels)
            if stall_count:
                counter.inc(stall_count, kind="stall", **labels)
            if ps_loss_count:
                counter.inc(ps_loss_count, kind="ps_loss", **labels)

        if obs is not None:
            # bound views resolve the label key once, outside the wave loop
            ps_counter = obs.metrics.counter(
                "ps_tx_total",
                help="sync pulse (PS) transmissions",
                unit="messages",
            ).bound(**labels)
            wave_hist = obs.metrics.histogram(
                "wave_size",
                buckets=WAVE_SIZE_BUCKETS,
                help="simultaneous transmitters per avalanche wave",
                unit="transmitters",
            ).bound(**labels)
        else:
            ps_counter = None
            wave_hist = None
        next_sample = (
            start_time_ms + PROBE_INTERVAL_MS
            if obs is not None
            else float("inf")
        )

        while True:
            if faults is not None:
                # devices whose crash time precedes the next instant die
                # silently; re-check because each removal can move the min
                while True:
                    t_peek = min(float(next_fire.min()), deadline)
                    dying = active & (crash_time <= t_peek + TIE_EPS)
                    if not dying.any():
                        break
                    crash_count += int(dying.sum())
                    if trace is not None:
                        for f in np.nonzero(dying)[0]:
                            trace.emit(
                                float(crash_time[f]), "crash", node=int(f),
                                **labels,
                            )
                    if bus is not None:
                        bus.publish(
                            "faults",
                            t_peek,
                            labels,
                            crashed=int(dying.sum()),
                            active=int(active.sum()) - int(dying.sum()),
                        )
                    active[dying] = False
                    next_fire[dying] = np.inf
                if not active.any():
                    _record_faults()
                    return self._finish(
                        False, deadline, messages, fires, instants, next_fire,
                        active, last_fire, fired_once, obs, labels,
                    )
                # a fire instant inside a stall window: the clock freezes
                # for the stall duration (applied once per device)
                stall_hit = (
                    active
                    & ~stall_applied
                    & (next_fire >= stall_start)
                    & (next_fire < stall_end)
                )
                if stall_hit.any():
                    stall_count += int(stall_hit.sum())
                    stall_applied |= stall_hit
                    next_fire[stall_hit] += (
                        stall_end[stall_hit] - stall_start[stall_hit]
                    )
            t = float(next_fire.min())
            if not np.isfinite(t) or t > deadline:
                t = min(t, deadline)
                _record_faults()
                return self._finish(
                    False, t, messages, fires, instants, next_fire, active,
                    last_fire, fired_once, obs, labels,
                )
            instants += 1
            fired_now = np.zeros(n, dtype=bool)
            prc_done = np.zeros(n, dtype=bool)
            wave = active & (next_fire <= t + TIE_EPS)

            while wave.any():
                firers = np.nonzero(wave)[0]
                k = firers.size
                fires += k
                messages += k
                if ps_counter is not None:
                    ps_counter.inc(k)
                    wave_hist.observe(k)
                if trace is not None:
                    for f in firers:
                        trace.emit(t, "ps_tx", node=int(f), **labels)
                fired_now |= wave

                heard = self._wave_reception(firers, event)
                if faults is not None:
                    # stall deafness + per-(event, rx) PS erasure; both are
                    # pure functions of identity
                    lost_ps = faults.ps_lost(event, ids_u64)
                    ps_loss_count += int(np.count_nonzero(heard & lost_ps))
                    deaf = (stall_start <= t) & (t < stall_end)
                    drop = lost_ps | deaf
                    if drop.any():
                        heard = heard & ~drop
                event += 1

                eligible = (
                    heard
                    & active
                    & ~fired_now
                    & ~prc_done
                    & (refractory_until <= t + TIE_EPS)
                )
                if not eligible.any():
                    wave = np.zeros(n, dtype=bool)
                    continue
                prc_done |= eligible
                wave = self._apply_prc(eligible, next_fire, period_of, t)

            last_fire[fired_now] = t
            fired_once |= fired_now
            next_fire[fired_now] = t + period_of[fired_now]
            refractory_until[fired_now] = t + self.refractory_ms

            if invariants is not None:
                # raw (unclipped) phases; stall-frozen clocks sit beyond
                # one full period ahead and are excluded while frozen
                checkable = active & (next_fire <= t + period_of)
                raw = 1.0 - (next_fire - t) / period_of
                invariants.check_phases(t, raw, active=checkable, atol=1e-9)

            if phase_hook is not None:
                phase_hook(instants - 1, t, self._phases_at(t, next_fire, active))

            if t >= next_sample:
                phases_now = self._phases_at(t, next_fire, active)
                vals = np.clip(phases_now[active], 0.0, 1.0)
                r_now = order_parameter(vals)
                groups_now = count_sync_groups(vals)
                spread_ms = circular_spread(vals) * self.period_ms
                obs.metrics.histogram(
                    "sync_error_ms",
                    buckets=SYNC_ERROR_BUCKETS_MS,
                    help="phase spread across active devices",
                    unit="ms",
                ).observe(spread_ms, **labels)
                obs.probes.record(
                    t,
                    "sync",
                    force=True,
                    order_parameter=r_now,
                    sync_groups=groups_now,
                    spread_ms=spread_ms,
                    fires=fires,
                )
                if bus is not None:
                    bus.publish(
                        "sync",
                        t,
                        labels,
                        spread_ms=spread_ms,
                        order_parameter=r_now,
                        sync_groups=groups_now,
                        fires=fires,
                        active=int(active.sum()),
                    )
                # anchor the next sample from now, so consecutive samples
                # are always at least one interval apart
                next_sample = t + PROBE_INTERVAL_MS

            if fired_once[active].all() and (
                last_fire[active].max() - last_fire[active].min()
                <= self.sync_window_ms
            ):
                _record_faults()
                return self._finish(
                    True, t, messages, fires, instants, next_fire, active,
                    last_fire, fired_once, obs, labels,
                )

    # ------------------------------------------------------------------
    def _apply_prc(
        self,
        eligible: np.ndarray,
        next_fire: np.ndarray,
        period_of: np.ndarray,
        t: float,
    ) -> np.ndarray:
        """Advance eligible receivers through the PRC; returns next wave.

        Mutates ``next_fire`` in place for receivers the pulse moved but
        did not push over threshold, and returns the boolean mask of
        those it did (the next avalanche wave).  The eligible indices are
        gathered first, so a wave of w receivers costs O(w), not O(n).
        """
        idx = np.flatnonzero(eligible)
        period_sub = period_of[idx]
        theta = 1.0 - (next_fire[idx] - t) / period_sub
        theta = np.clip(theta, 0.0, 1.0)
        new_theta = np.minimum(self.prc.alpha * theta + self.prc.beta, 1.0)
        fire_sub = new_theta >= 1.0
        adjust = idx[~fire_sub]
        next_fire[adjust] = t + (1.0 - new_theta[~fire_sub]) * period_sub[
            ~fire_sub
        ]
        to_fire = np.zeros(self.n, dtype=bool)
        to_fire[idx[fire_sub]] = True
        return to_fire

    # ------------------------------------------------------------------
    def _phases_at(
        self, t: float, next_fire: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Phases (fraction of period elapsed) at time ``t``; NaN inactive."""
        out = np.full(self.n, np.nan)
        remaining_t = np.clip(next_fire[active] - t, 0.0, self.period_ms)
        out[active] = 1.0 - remaining_t / self.period_ms
        return out

    def _finish(
        self,
        converged: bool,
        t: float,
        messages: int,
        fires: int,
        instants: int,
        next_fire: np.ndarray,
        active: np.ndarray,
        last_fire: np.ndarray,
        fired_once: np.ndarray,
        obs: Observability | None = None,
        obs_labels: dict[str, str] | None = None,
    ) -> PulseSyncResult:
        if active.any() and fired_once[active].all():
            spread = float(last_fire[active].max() - last_fire[active].min())
        else:
            spread = float("inf")
        out = self._phases_at(t, next_fire, active)
        if obs is not None:
            labels = obs_labels or {}
            obs.metrics.counter(
                "kernel_instants_total",
                help="avalanche instants processed by the sync kernel",
            ).inc(instants, **labels)
            if np.isfinite(spread):
                obs.metrics.histogram(
                    "sync_error_ms",
                    buckets=SYNC_ERROR_BUCKETS_MS,
                    help="phase spread across active devices",
                    unit="ms",
                ).observe(spread, **labels)
                obs.probes.record(
                    t, "sync", force=True, spread_ms=spread, fires=fires
                )
        return PulseSyncResult(
            converged=converged,
            time_ms=t,
            messages=messages,
            fires=fires,
            instants=instants,
            final_spread_ms=spread,
            sync_time_ms=t if converged else float("nan"),
            final_phase=out,
        )


class SparsePulseSyncKernel(_PulseSyncBase):
    """CSR coupling-graph kernel — O(wave edges) per wave.

    The coupling graph — the mesh for FST, the tree edges for ST's trim —
    is given in CSR form with the mean received power per directed edge;
    a pulse only reaches receivers on an edge whose faded power clears
    the threshold.  Each wave gathers the firers' edge ranges
    (:func:`~repro.radio.sparse_link.gather_rows`), applies per-edge
    counter-based fading, and resolves detection with a scatter (or, under
    the ``"capture"`` policy, with :func:`~repro.radio.interference.capture`).

    Length-``n`` scratch arrays are preallocated once and reused across
    waves; nothing of size n² is ever allocated.

    Parameters
    ----------
    indptr, indices, edge_power_dbm:
        The coupling graph in CSR form by transmitter, with the mean
        received power (dBm) per directed edge.
    prc:
        Linear PRC (eq. 5).  ``LinearPRC(1.0, 0.0)`` disables coupling
        (free-running oscillators).
    period_ms, refractory_ms, sync_window_ms, threshold_dbm:
        Oscillator and convergence parameters (see PaperConfig).
    fading:
        ``HashedRayleighFading`` (one draw per ``(event, tx, rx)``) or
        ``NoFading()`` for oracle runs.
    collision_policy:
        Pulse-detection rule for superposed same-instant transmissions:
        ``"tolerant"`` (any detected superposition is one pulse — the
        paper's assumption and RACH preamble physics), ``"capture"``
        (strongest must clear the SIR margin) or ``"destructive"``
        (any collision destroys the pulse).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_power_dbm: np.ndarray,
        prc: LinearPRC,
        **kwargs,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.edge_power_dbm = np.asarray(edge_power_dbm, dtype=float)
        if self.indices.shape != self.edge_power_dbm.shape:
            raise ValueError("indices and edge_power_dbm must align")
        super().__init__(self.indptr.size - 1, prc, **kwargs)
        # scratch reused across waves (never n²)
        self._counts = np.zeros(self.n, dtype=np.int64)
        self._heard = np.zeros(self.n, dtype=bool)

    @classmethod
    def from_edges(
        cls,
        n: int,
        tx: np.ndarray,
        rx: np.ndarray,
        power_dbm: np.ndarray,
        prc: LinearPRC,
        **kwargs,
    ) -> "SparsePulseSyncKernel":
        """Build from a directed edge list (sorted internally)."""
        indptr, indices, (power,) = csr_from_edges(n, tx, rx, power_dbm)
        return cls(indptr, indices, power, prc, **kwargs)

    # ------------------------------------------------------------------
    def _wave_reception(self, firers: np.ndarray, event: int) -> np.ndarray:
        epos, tx_e = gather_rows(self.indptr, firers)
        rx_e = self.indices[epos]
        power_e = self.edge_power_dbm[epos]
        if self._hashed_fading:
            power_e = power_e + self.fading.link_db(event, tx_e, rx_e)
        det = power_e >= self.threshold_dbm
        rx_e = rx_e[det]

        heard = self._heard
        heard.fill(False)
        if self.collision_policy == "tolerant":
            heard[rx_e] = True
        elif self.collision_policy == "destructive":
            counts = self._counts
            counts[rx_e] = 0
            np.add.at(counts, rx_e, 1)
            heard[rx_e] = counts[rx_e] == 1
        else:  # capture
            order, starts, _, decodable = capture(
                rx_e, tx_e[det], power_e[det], self.capture_margin_db
            )
            heard[rx_e[order[starts[decodable]]]] = True
        return heard
