"""Simulation configuration.

:class:`PaperConfig` defaults reproduce Table I exactly:

=========================  ==========================================
Device power               23 dBm
Threshold                  −95 dBm
Device density             50 devices in 100 m × 100 m
Fast fading                UMi (NLOS) → Rayleigh
Shadowing std dev          10 dB
Time slot                  1 ms
Propagation model          PL = 4.35 + 25·log10(d) if d < 6 m,
                           PL = 40.0 + 40·log10(d) otherwise
=========================  ==========================================

The remaining fields parameterize the protocols (oscillator period,
coupling, refractory, convergence window) — quantities the paper uses but
does not tabulate; defaults are chosen per §III's references ([13], [19])
and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

from repro.faults.plan import FaultConfig

#: Table I device density: 50 devices per 100 m × 100 m.
PAPER_DENSITY_PER_M2 = 50.0 / (100.0 * 100.0)


@dataclass(frozen=True)
class PaperConfig:
    """Full experiment configuration with Table I defaults."""

    # ----- Table I -----------------------------------------------------
    n_devices: int = 50
    area_side_m: float = 100.0
    tx_power_dbm: float = 23.0
    threshold_dbm: float = -95.0
    shadowing_sigma_db: float = 10.0
    slot_ms: float = 1.0
    pathloss_model: Literal["paper", "logdistance", "freespace"] = "paper"
    fading_model: Literal["rayleigh", "none"] = "rayleigh"

    # ----- RSSI ranging (§III eqs 6–12) --------------------------------
    #: Path-loss exponent the *receiver* assumes when inverting RSSI
    #: (paper: 2 indoor, 4 outdoor; outdoor adopted).
    rssi_exponent: float = 4.0
    rssi_reference_loss_db: float = 40.0
    rssi_reference_distance_m: float = 1.0

    # ----- Pulse-coupled oscillator (§III eqs 3–5) ----------------------
    #: Free-running period T in slots (fires every T ms at 1 ms slots).
    period_slots: int = 100
    #: Dissipation factor a of eq. (5).
    dissipation: float = 3.0
    #: Pulse strength ε of eq. (5); with dissipation > 0 this yields
    #: α > 1, β > 0, the Mirollo–Strogatz convergence regime.
    epsilon: float = 0.08
    #: Post-fire deaf window in slots (Werner-Allen's echo-storm fix).
    refractory_slots: int = 1
    #: Convergence: all devices fired within this many slots of each other.
    sync_window_slots: int = 2

    # ----- Protocol / experiment ---------------------------------------
    collision_policy: Literal["tolerant", "capture", "destructive"] = "tolerant"
    #: Initial neighbour-discovery window in periods (both algorithms pay it).
    discovery_periods: int = 3
    #: A neighbour only *must* be discovered when its mean PS power clears
    #: the detection threshold by this margin — links fading in and out of
    #: detectability are not part of either protocol's deliverable.
    discovery_margin_db: float = 5.0
    #: Discovery beacons randomize over this many orthogonal RACH
    #: preambles (LTE PRACH exposes 64; D2D PS gets a small dedicated
    #: pool).  Same-slot beacons on different preambles do not collide.
    beacon_preambles: int = 8
    #: FFA keep-alive/ranking rounds each fragment runs per Borůvka phase
    #: (Algorithm 1 line 5); they ride RACH1 concurrently with the phase's
    #: control traffic, so they add messages but no extra slots.
    ffa_rounds_per_phase: int = 2
    #: Fragment merge rule: plain Borůvka (default) or level-based GHS
    #: (the paper cites both: "Keeping in mind GHS and Boruvkas algorithm").
    merge_rule: Literal["boruvka", "ghs"] = "boruvka"
    #: Two-sided shadowing clip in units of sigma (bounds the candidate
    #: radius of the grid search that builds the link CSR).
    shadow_clip_sigma: float = 3.0
    #: Hard cap on simulated time (ms).
    max_time_ms: float = 300_000.0
    #: Optional deterministic fault model (:mod:`repro.faults`); accepts
    #: a :class:`~repro.faults.plan.FaultConfig` or a spec string like
    #: ``"beacon_loss=0.1,crash=0.2"``.  ``None`` = perfect radio.
    faults: FaultConfig | None = None
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_devices < 2:
            raise ValueError(f"n_devices must be >= 2, got {self.n_devices}")
        if self.area_side_m <= 0:
            raise ValueError("area_side_m must be positive")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be >= 0")
        if self.slot_ms <= 0:
            raise ValueError("slot_ms must be positive")
        if self.period_slots < 2:
            raise ValueError("period_slots must be >= 2")
        if self.dissipation <= 0 or self.epsilon <= 0:
            raise ValueError(
                "dissipation and epsilon must be > 0 (Mirollo-Strogatz regime)"
            )
        if self.refractory_slots < 0:
            raise ValueError("refractory_slots must be >= 0")
        if self.sync_window_slots < 1:
            raise ValueError("sync_window_slots must be >= 1")
        if self.discovery_periods < 0:
            raise ValueError("discovery_periods must be >= 0")
        if self.max_time_ms <= 0:
            raise ValueError("max_time_ms must be positive")
        if self.rssi_exponent <= 0:
            raise ValueError("rssi_exponent must be positive")
        if self.discovery_margin_db < 0:
            raise ValueError("discovery_margin_db must be >= 0")
        if self.beacon_preambles < 1:
            raise ValueError("beacon_preambles must be >= 1")
        if self.ffa_rounds_per_phase < 0:
            raise ValueError("ffa_rounds_per_phase must be >= 0")
        if self.shadow_clip_sigma <= 0:
            raise ValueError("shadow_clip_sigma must be positive")
        if isinstance(self.faults, str):
            object.__setattr__(self, "faults", FaultConfig.from_spec(self.faults))
        elif self.faults is not None and not isinstance(self.faults, FaultConfig):
            raise ValueError(
                "faults must be a FaultConfig, a spec string, or None; "
                f"got {type(self.faults).__name__}"
            )

    # ------------------------------------------------------------------
    @property
    def period_ms(self) -> float:
        """Oscillator period T in ms."""
        return self.period_slots * self.slot_ms

    @property
    def refractory_ms(self) -> float:
        return self.refractory_slots * self.slot_ms

    @property
    def sync_window_ms(self) -> float:
        return self.sync_window_slots * self.slot_ms

    @property
    def density_per_m2(self) -> float:
        return self.n_devices / (self.area_side_m**2)

    def with_devices(self, n: int, *, keep_density: bool = True) -> "PaperConfig":
        """Scale the scenario to ``n`` devices.

        With ``keep_density`` (default) the area grows so Table I's density
        (50 devices / 100 m × 100 m) is preserved — the natural reading of
        the paper's "different scales" sweeps, and what produces multi-hop
        topologies at large n.
        """
        if keep_density:
            side = math.sqrt(n / PAPER_DENSITY_PER_M2)
            return replace(self, n_devices=n, area_side_m=side)
        return replace(self, n_devices=n)

    def with_seed(self, seed: int) -> "PaperConfig":
        return replace(self, seed=seed)

    def replace(self, **kwargs) -> "PaperConfig":
        """Functional update (dataclasses.replace passthrough)."""
        return replace(self, **kwargs)
