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

Two reception channels are modelled, matching LTE RACH physics:

* **pulse detection** (energy): identical preambles superpose
  constructively, so under the default ``tolerant`` policy any detected
  superposition counts as one received pulse;
* **identity decoding** (payload): to learn *who* transmitted (neighbour
  discovery, RSSI bookkeeping) the receiver must decode the strongest
  copy against the superposition — the classic capture effect, needing
  ``capture_margin_db`` of SIR when several transmissions land together.

The split is what makes the FST baseline degrade at scale: synchronizing
helps pulse detection but ruins identity decoding, so mesh-wide neighbour
discovery stalls exactly when synchronization succeeds.  The kernel
optionally tracks decoding and can require a set of ordered pairs to be
decoded before declaring convergence (``required_decoding``).

Two kernels share one run loop (:class:`_PulseSyncBase`):

* :class:`SparsePulseSyncKernel` — the simulation kernel: CSR coupling
  graph, O(edges-of-wave) per wave via segment reductions, with scratch
  arrays reused across waves.  Requires counter-based fading
  (:class:`~repro.radio.fading.HashedRayleighFading`): every fading
  value is a pure function of ``(key, event, tx, rx)`` with one radio
  event per avalanche wave.
* :class:`PulseSyncKernel` — ``(k, n)`` row slices of a dense
  mean-power matrix per wave.  It also accepts *stream* fading (a fresh
  ``(k, n)`` block per wave from a generator), which the mobility
  re-sync study (:mod:`repro.mobility.resync`) draws; moving that study
  to counter-based fading would change its published results.

The kernels are pure NumPy per wave (no per-node Python loops), following
the HPC guide's vectorization rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.obs import Observability
from repro.oscillator.prc import LinearPRC
from repro.oscillator.sync_metrics import (
    circular_spread,
    count_sync_groups,
    order_parameter,
)
from repro.radio.fading import NoFading
from repro.radio.sparse_link import csr_from_edges, gather_rows
from repro.sim.trace import TraceRecorder

#: Fire times closer than this (ms) are simultaneous (one instant).
TIE_EPS = 1e-9

#: Per-instant observer signature: ``(instant_index, time_ms, phases)``.
PhaseHook = Callable[[int, float, np.ndarray], None]

#: Bucket bounds (ms) for the sync-error histogram; the paper's sync
#: window is 2 ms and periods are O(100 ms).
SYNC_ERROR_BUCKETS_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

#: Bucket bounds for avalanche wave sizes (simultaneous transmitters).
WAVE_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class TelemetrySample:
    """One synchrony snapshot along a run."""

    time_ms: float
    order_parameter: float
    sync_groups: int
    fires_so_far: int


@dataclass
class PulseSyncResult:
    """Outcome of one synchronization run."""

    converged: bool
    time_ms: float
    messages: int
    fires: int
    instants: int
    final_spread_ms: float
    #: first time the sync window was met (NaN if never)
    sync_time_ms: float = float("nan")
    #: first time the decoding requirement was met (NaN if never/untracked)
    discovery_time_ms: float = float("nan")
    #: phases (fraction of period elapsed) at the end; full-length array
    #: with NaN at inactive nodes
    final_phase: np.ndarray | None = field(repr=False, default=None)
    #: decoded[i, j] — receiver i decoded sender j's identity (when tracked)
    decoded: np.ndarray | None = field(repr=False, default=None)
    #: sampled synchrony trajectory (when telemetry_interval_ms was set)
    telemetry: list[TelemetrySample] = field(repr=False, default_factory=list)


class _PulseSyncBase:
    """Shared avalanche run loop; subclasses supply :meth:`_wave_reception`.

    The loop advances a radio **event counter** — one event per avalanche
    wave — and hands it to the reception hook.  Counter-based fading
    models key their draws on it, so a channel realization is a pure
    function of the wave's identity.
    """

    def _init_common(
        self,
        n: int,
        prc: LinearPRC,
        *,
        period_ms: float,
        threshold_dbm: float,
        refractory_ms: float,
        sync_window_ms: float,
        fading,
        collision_policy: str,
        capture_margin_db: float,
    ) -> None:
        if period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if collision_policy not in ("tolerant", "capture", "destructive"):
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
        self._stream_fading = not self._hashed_fading and not isinstance(
            self.fading, NoFading
        )

    def _wave_reception(
        self, firers: np.ndarray, event: int, need_decoding: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve one wave: ``(heard[n], decoded_sender[n])``.

        ``heard`` is the boolean pulse-detection vector under the
        configured collision policy; ``decoded_sender[i]`` is the sender
        id receiver ``i`` captured (−1 when nothing decodable — may skip
        the capture computation entirely when ``need_decoding`` is false
        and the policy does not depend on it).
        """
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
        require_sync: bool = True,
        required_decoding: np.ndarray | None = None,
        trace: TraceRecorder | None = None,
        telemetry_interval_ms: float | None = None,
        obs: Observability | None = None,
        obs_labels: dict[str, str] | None = None,
        faults: FaultPlan | None = None,
        invariants: InvariantChecker | None = None,
        phase_hook: "PhaseHook | None" = None,
    ) -> PulseSyncResult:
        """Run until the convergence conditions hold (or time runs out).

        Parameters
        ----------
        require_sync:
            Demand all active devices fire within the sync window.
        required_decoding:
            Optional ``(n, n)`` boolean matrix of ordered (receiver,
            sender) pairs that must be identity-decoded before the run
            counts as converged.  Decoding is tracked iff this is given.
        initial_phases:
            Fractions of the period already elapsed (phase 0.9 fires
            soon); drawn uniformly when omitted.
        telemetry_interval_ms:
            When set, a :class:`TelemetrySample` (order parameter, group
            count) is recorded about every this-many ms of simulated time
            — the convergence *trajectory*, not just the endpoint.
        obs:
            Optional :class:`~repro.obs.Observability` bundle.  When set,
            the kernel bills ``ps_tx_total``, observes wave sizes and the
            sync-error spread, and records periodic ``sync`` probe
            samples (at the bundle's probe interval unless
            ``telemetry_interval_ms`` overrides it).  When ``trace`` is
            unset the bundle's trace recorder (if any) is used.  When
            ``None`` (the default) the hot loop is untouched.
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
            digests for golden traces.
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
        if not require_sync and required_decoding is None:
            raise ValueError(
                "at least one convergence condition is required "
                "(require_sync or required_decoding)"
            )

        if initial_phases is None:
            phases = rng.uniform(0.0, 1.0, size=n)
        else:
            phases = np.asarray(initial_phases, dtype=float)
            if phases.shape != (n,):
                raise ValueError(f"initial_phases must have shape ({n},)")
            if np.any((phases[active] < 0) | (phases[active] >= 1.0)):
                raise ValueError("phases must lie in [0, 1)")

        track_decoding = required_decoding is not None
        if track_decoding:
            required = np.asarray(required_decoding, dtype=bool).copy()
            if required.shape != (n, n):
                raise ValueError(f"required_decoding must be ({n}, {n})")
            np.fill_diagonal(required, False)
            decoded = np.zeros((n, n), dtype=bool)
            remaining = int(required.sum())
        else:
            required = None
            decoded = None
            remaining = 0

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
        sync_time = float("nan")
        discovery_time = float("nan")
        deadline = start_time_ms + max_time_ms
        samples: list[TelemetrySample] = []
        if telemetry_interval_ms is not None and telemetry_interval_ms <= 0:
            raise ValueError("telemetry_interval_ms must be positive")
        if trace is None and obs is not None:
            trace = obs.trace
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
        # sample at the probe cadence when observed, even without an
        # explicit telemetry request
        sample_interval = telemetry_interval_ms
        if sample_interval is None and obs is not None:
            sample_interval = obs.probes.interval_ms
        next_sample = (
            start_time_ms + sample_interval
            if sample_interval is not None
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
                        active, last_fire, fired_once, sync_time,
                        discovery_time, decoded, samples, obs, labels,
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
                    last_fire, fired_once, sync_time, discovery_time, decoded,
                    samples, obs, labels,
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

                heard, dec_sender = self._wave_reception(
                    firers, event, track_decoding
                )
                if faults is not None:
                    # stall deafness + per-(event, rx) PS erasure; both are
                    # pure functions of identity
                    lost_ps = faults.ps_lost(event, ids_u64)
                    ps_loss_count += int(np.count_nonzero(heard & lost_ps))
                    deaf = (stall_start <= t) & (t < stall_end)
                    drop = lost_ps | deaf
                    if drop.any():
                        heard = heard & ~drop
                        dec_sender = np.where(drop, -1, dec_sender)
                event += 1

                if track_decoding:
                    # transmitters are half-duplex: no decoding while firing
                    rx_ok = (dec_sender >= 0) & active & ~fired_now
                    rx_idx = np.nonzero(rx_ok)[0]
                    if rx_idx.size:
                        tx_idx = dec_sender[rx_idx]
                        newly = required[rx_idx, tx_idx] & ~decoded[
                            rx_idx, tx_idx
                        ]
                        remaining -= int(newly.sum())
                        decoded[rx_idx, tx_idx] = True
                        if remaining == 0 and np.isnan(discovery_time):
                            discovery_time = t
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
                samples.append(
                    TelemetrySample(
                        time_ms=t,
                        order_parameter=r_now,
                        sync_groups=groups_now,
                        fires_so_far=fires,
                    )
                )
                if obs is not None:
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
                next_sample = t + sample_interval  # type: ignore[operator]

            sync_ok = True
            if require_sync or np.isnan(sync_time):
                if fired_once[active].all():
                    spread = float(
                        last_fire[active].max() - last_fire[active].min()
                    )
                    sync_ok = spread <= self.sync_window_ms
                else:
                    sync_ok = False
                if sync_ok and np.isnan(sync_time):
                    sync_time = t
            decode_ok = (not track_decoding) or remaining == 0
            if (sync_ok or not require_sync) and decode_ok:
                _record_faults()
                return self._finish(
                    True, t, messages, fires, instants, next_fire, active,
                    last_fire, fired_once, sync_time, discovery_time, decoded,
                    samples, obs, labels,
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
        sync_time: float,
        discovery_time: float,
        decoded: np.ndarray | None,
        telemetry: list[TelemetrySample],
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
            sync_time_ms=sync_time,
            discovery_time_ms=discovery_time,
            final_phase=out,
            decoded=decoded,
            telemetry=telemetry,
        )


class PulseSyncKernel(_PulseSyncBase):
    """Dense-matrix kernel (stream fading; see the module docstring).

    Parameters
    ----------
    mean_rx_dbm:
        ``(n, n)`` mean received power matrix (dBm), −inf on the diagonal.
    adjacency:
        Boolean coupling mask — mesh for FST, tree edges for ST fragments.
        A pulse only affects receivers that are (a) adjacent and (b) above
        threshold after fading.
    prc:
        Linear PRC (eq. 5).  ``LinearPRC(1.0, 0.0)`` disables coupling —
        useful for pure (unsynchronized) discovery beaconing.
    period_ms, refractory_ms, sync_window_ms, threshold_dbm:
        Oscillator and convergence parameters (see PaperConfig).
    fading:
        Per-transmission fading model; ``NoFading()`` for oracle runs.
        Counter-based models (``link_db``) draw per ``(event, tx, rx)``;
        stream models (``sample_db``) draw a fresh ``(k, n)`` block.
    collision_policy:
        Pulse-detection rule for superposed same-instant transmissions:
        ``"tolerant"`` (any detected superposition is one pulse — the
        paper's assumption and RACH preamble physics), ``"capture"``
        (strongest must clear the SIR margin) or ``"destructive"``
        (any collision destroys the pulse).  Identity decoding always
        uses the capture rule regardless of this policy.
    """

    def __init__(
        self,
        mean_rx_dbm: np.ndarray,
        adjacency: np.ndarray,
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
        mean_rx_dbm = np.asarray(mean_rx_dbm, dtype=float)
        adjacency = np.asarray(adjacency, dtype=bool)
        if mean_rx_dbm.shape != adjacency.shape or mean_rx_dbm.ndim != 2:
            raise ValueError("mean_rx_dbm and adjacency must be equal square")
        self.mean_rx = mean_rx_dbm
        self.adjacency = adjacency
        self._init_common(
            mean_rx_dbm.shape[0],
            prc,
            period_ms=period_ms,
            threshold_dbm=threshold_dbm,
            refractory_ms=refractory_ms,
            sync_window_ms=sync_window_ms,
            fading=fading,
            collision_policy=collision_policy,
            capture_margin_db=capture_margin_db,
        )
        self._node_ids = np.arange(self.n, dtype=np.int64)

    # ------------------------------------------------------------------
    def _wave_reception(
        self, firers: np.ndarray, event: int, need_decoding: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        k = firers.size
        power = self.mean_rx[firers]
        if self._hashed_fading:
            power = power + self.fading.link_db(
                event, firers[:, None], self._node_ids[None, :]
            )
        elif self._stream_fading:
            power = power + self.fading.sample_db((k, n))
        det = (power >= self.threshold_dbm) & self.adjacency[firers]
        return self._resolve_wave(det, power, firers, need_decoding)

    def _resolve_wave(
        self,
        det: np.ndarray,
        power: np.ndarray,
        firers: np.ndarray,
        need_decoding: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-receiver pulse detection and identity decoding for one wave."""
        n = self.n
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
        signal = np.where(
            any_heard, np.power(10.0, strongest_pow / 10.0), 0.0
        )
        noise = np.maximum(total - signal, 1e-30)
        with np.errstate(divide="ignore", invalid="ignore"):
            sir_db = 10.0 * np.log10(np.maximum(signal, 1e-300) / noise)
        decodable = any_heard & (
            (counts == 1) | (sir_db >= self.capture_margin_db)
        )
        decoded_sender = np.where(
            decodable, firers[strongest_row], -1
        ).astype(int)

        # pulse detection per policy
        if self.collision_policy == "tolerant":
            heard = any_heard
        elif self.collision_policy == "destructive":
            heard = counts == 1
        else:  # capture
            heard = decodable
        return heard, decoded_sender


class SparsePulseSyncKernel(_PulseSyncBase):
    """CSR coupling-graph kernel — O(wave edges) per wave.

    The coupling graph (what :class:`PulseSyncKernel` expresses as the
    boolean ``adjacency`` mask) is given in CSR form with the mean
    received power per directed edge.  Each wave gathers the firers' edge
    ranges (:func:`~repro.radio.sparse_link.gather_rows`), applies
    per-edge counter-based fading, and resolves detection/decoding with
    segment reductions over the receiver-sorted edge list.  The strongest
    -copy tie-break is equal powers → lowest transmitter id.

    Length-``n`` scratch arrays are preallocated once and reused across
    waves; nothing of size n² is ever allocated.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_power_dbm: np.ndarray,
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
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.edge_power_dbm = np.asarray(edge_power_dbm, dtype=float)
        if self.indices.shape != self.edge_power_dbm.shape:
            raise ValueError("indices and edge_power_dbm must align")
        self._init_common(
            self.indptr.size - 1,
            prc,
            period_ms=period_ms,
            threshold_dbm=threshold_dbm,
            refractory_ms=refractory_ms,
            sync_window_ms=sync_window_ms,
            fading=fading,
            collision_policy=collision_policy,
            capture_margin_db=capture_margin_db,
        )
        if self._stream_fading:
            raise TypeError(
                "SparsePulseSyncKernel needs counter-based fading "
                "(HashedRayleighFading or NoFading), got "
                f"{type(self.fading).__name__}"
            )
        # scratch reused across waves (never n²)
        self._counts = np.zeros(self.n, dtype=np.int64)
        self._heard = np.zeros(self.n, dtype=bool)
        self._dec_sender = np.full(self.n, -1, dtype=int)

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
    def _wave_reception(
        self, firers: np.ndarray, event: int, need_decoding: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        epos, tx_e = gather_rows(self.indptr, firers)
        rx_e = self.indices[epos]
        power_e = self.edge_power_dbm[epos]
        if self._hashed_fading:
            power_e = power_e + self.fading.link_db(event, tx_e, rx_e)
        det = power_e >= self.threshold_dbm
        tx_e = tx_e[det]
        rx_e = rx_e[det]
        power_e = power_e[det]

        heard = self._heard
        heard.fill(False)
        dec_sender = self._dec_sender
        dec_sender.fill(-1)

        if not need_decoding and self.collision_policy == "tolerant":
            heard[rx_e] = True
            return heard, dec_sender
        if not need_decoding and self.collision_policy == "destructive":
            counts = self._counts
            counts[rx_e] = 0
            np.add.at(counts, rx_e, 1)
            heard[rx_e] = counts[rx_e] == 1
            return heard, dec_sender

        if rx_e.size == 0:
            return heard, dec_sender

        # receiver-sorted segments: power descending, lowest tx on ties —
        # the first edge of each segment is the capture winner
        order = np.lexsort((tx_e, -power_e, rx_e))
        rx_s = rx_e[order]
        pw_s = power_e[order]
        tx_s = tx_e[order]
        seg_starts = np.flatnonzero(
            np.concatenate(([True], rx_s[1:] != rx_s[:-1]))
        )
        seg_rx = rx_s[seg_starts]
        seg_counts = np.diff(np.concatenate((seg_starts, [rx_s.size])))
        strongest_pow = pw_s[seg_starts]
        strongest_tx = tx_s[seg_starts]

        signal = np.power(10.0, strongest_pow / 10.0)
        total = np.add.reduceat(np.power(10.0, pw_s / 10.0), seg_starts)
        noise = np.maximum(total - signal, 1e-30)
        with np.errstate(divide="ignore", invalid="ignore"):
            sir_db = 10.0 * np.log10(np.maximum(signal, 1e-300) / noise)
        decodable = (seg_counts == 1) | (sir_db >= self.capture_margin_db)
        dec_sender[seg_rx[decodable]] = strongest_tx[decodable]

        if self.collision_policy == "tolerant":
            heard[seg_rx] = True
        elif self.collision_policy == "destructive":
            heard[seg_rx] = seg_counts == 1
        else:  # capture
            heard[seg_rx] = decodable
        return heard, dec_sender
