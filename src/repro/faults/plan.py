"""Deterministic, seed-reproducible fault-injection plans.

Real D2D populations are not the clean radio the paper simulates: beacons
are missed (half-duplex turnarounds, deep fades), RACH preambles collide
in bursts, devices stall or die mid-protocol, and free-running clocks
drift (the FPGA measurements of pulse-coupled sync in arXiv:1408.0652 and
the systematic miss probabilities of arXiv:1405.4217).  This module
injects those imperfections **deterministically**: every fault decision
is a counter hash (:mod:`repro.radio.chanhash` style) — a pure function
of a run key and the *identity* of the event being decided —

* beacon loss:      ``f(key, event, tx, rx)``
* PS loss:          ``f(key, event, rx)``
* RACH collision:   ``f(key, burst, device)``   (bursty: one decision
  per ``collision_burst_periods`` periods)
* crash / stall:    ``f(key, device)``          (schedule drawn up front)
* clock drift:      ``f(key, device)``          (clipped normal factor)
* event drop:       ``f(key, seq)``             (engine callbacks)

so every evaluation order (per event, per cohort, per whole-array pass)
draws **identical** faults, and a faulty run is bitwise reproducible
across repeats (``tests/test_sparse_parity.py``).  The plan key derives
purely from ``config.seed`` — no generator stream is consumed — so
enabling a plan with all probabilities zero perturbs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.radio.chanhash import (
    derive_key,
    directed_code,
    hashed_uniform,
    splitmix64,
)

_U64 = np.uint64

#: Fault-stream salts — disjoint from the channel salts in
#: :mod:`repro.radio.chanhash` so fault and channel draws never share a
#: hash input.
SALT_FAULT_KEY = _U64(0x464C5459_4B455959)
SALT_CRASH = _U64(0x464C5459_43525348)
SALT_CRASH_TIME = _U64(0x464C5459_43525354)
SALT_STALL = _U64(0x464C5459_53544C4C)
SALT_STALL_TIME = _U64(0x464C5459_53544C54)
SALT_DRIFT_U1 = _U64(0x464C5459_44524631)
SALT_DRIFT_U2 = _U64(0x464C5459_44524632)
SALT_BEACON_LOSS = _U64(0x464C5459_42434E4C)
SALT_PS_LOSS = _U64(0x464C5459_50534C53)
SALT_RACH_COLLISION = _U64(0x464C5459_52414348)
SALT_EVENT_DROP = _U64(0x464C5459_44524F50)

#: ``from_spec`` shorthand → field-name aliases.
_SPEC_ALIASES = {
    "collision": "rach_collision",
    "drift": "drift_std",
    "burst": "collision_burst_periods",
    "backoff": "max_backoff_periods",
}


@dataclass(frozen=True)
class FaultConfig:
    """Fault-model parameters (all default to "off").

    Probabilities are per decision: ``beacon_loss`` per decoded
    (event, tx, rx) beacon, ``ps_loss`` per (event, receiver) sync
    instant, ``rach_collision`` per (device, burst) of
    ``collision_burst_periods`` beacon periods, ``crash``/``stall`` per
    device (with the time drawn uniformly inside the respective window),
    ``event_drop`` per engine callback.  ``drift_std`` is the relative
    standard deviation of per-device free-running periods (clipped at
    ±3σ).
    """

    beacon_loss: float = 0.0
    ps_loss: float = 0.0
    rach_collision: float = 0.0
    collision_burst_periods: int = 4
    max_backoff_periods: int = 8
    crash: float = 0.0
    crash_window_ms: float = 20_000.0
    stall: float = 0.0
    stall_window_ms: float = 20_000.0
    stall_duration_ms: float = 500.0
    drift_std: float = 0.0
    event_drop: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "beacon_loss",
            "ps_loss",
            "rach_collision",
            "crash",
            "stall",
            "event_drop",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.collision_burst_periods < 1:
            raise ValueError("collision_burst_periods must be >= 1")
        if self.max_backoff_periods < 0:
            raise ValueError("max_backoff_periods must be >= 0")
        if self.crash_window_ms <= 0 or self.stall_window_ms <= 0:
            raise ValueError("fault windows must be positive")
        if self.stall_duration_ms <= 0:
            raise ValueError("stall_duration_ms must be positive")
        if not 0.0 <= self.drift_std < 1.0 / 3.0:
            raise ValueError(
                "drift_std must be in [0, 1/3) so clipped factors stay positive"
            )

    @property
    def active(self) -> bool:
        """True when any fault channel can actually fire."""
        return (
            self.beacon_loss > 0
            or self.ps_loss > 0
            or self.rach_collision > 0
            or self.crash > 0
            or self.stall > 0
            or self.drift_std > 0
            or self.event_drop > 0
        )

    @classmethod
    def from_spec(cls, spec: str) -> "FaultConfig":
        """Parse a CLI-style spec: ``"beacon_loss=0.1,crash=0.2,drift=1e-3"``.

        Keys are field names (or the aliases ``collision``, ``drift``,
        ``burst``, ``backoff``); values are coerced to the field's type.
        """
        known = {f.name: f.type for f in fields(cls)}
        kwargs: dict[str, float | int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"fault spec entry {part!r} is not key=value")
            key, _, value = part.partition("=")
            key = key.strip()
            key = _SPEC_ALIASES.get(key, key)
            if key not in known:
                options = ", ".join(sorted(set(known) | set(_SPEC_ALIASES)))
                raise ValueError(
                    f"unknown fault spec key {key!r} (known: {options})"
                )
            try:
                coerce = int if "int" in str(known[key]) else float
                kwargs[key] = coerce(value.strip())
            except ValueError as exc:
                raise ValueError(
                    f"fault spec value for {key!r} is not numeric: {value!r}"
                ) from exc
        return cls(**kwargs)

    def to_spec(self) -> str:
        """Render the non-default fields as a :meth:`from_spec` string.

        Round-trips: ``FaultConfig.from_spec(cfg.to_spec()) == cfg``.
        Used by the conformance layer to stamp golden traces with the
        exact fault model they were recorded under.
        """
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return ",".join(parts)


class FaultPlan:
    """Materialized fault schedule for one ``(key, config, n)`` triple.

    Per-device crash/stall schedules and drift factors are precomputed;
    per-event decisions (:meth:`beacon_lost`, :meth:`ps_lost`,
    :meth:`rach_collided`, :meth:`event_dropped`) are evaluated lazily by
    counter hash.  The plan holds no mutable state, so the same plan can
    feed a dense and a sparse run and yield identical decisions.
    """

    def __init__(self, key: int, config: FaultConfig, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.key = int(key)
        self.config = config
        self.n = int(n)
        ids = np.arange(n, dtype=np.uint64)

        u = hashed_uniform(ids, derive_key(key, SALT_CRASH))
        t = hashed_uniform(ids, derive_key(key, SALT_CRASH_TIME))
        self.crash_time_ms = np.where(
            u < config.crash, t * config.crash_window_ms, np.inf
        )

        u = hashed_uniform(ids, derive_key(key, SALT_STALL))
        t = hashed_uniform(ids, derive_key(key, SALT_STALL_TIME))
        self.stall_start_ms = np.where(
            u < config.stall, t * config.stall_window_ms, np.inf
        )
        self.stall_end_ms = self.stall_start_ms + config.stall_duration_ms

        if config.drift_std > 0:
            u1 = hashed_uniform(ids, derive_key(key, SALT_DRIFT_U1))
            u2 = hashed_uniform(ids, derive_key(key, SALT_DRIFT_U2))
            z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
            self.period_factor = 1.0 + config.drift_std * np.clip(z, -3.0, 3.0)
        else:
            self.period_factor = np.ones(n)

        self._k_beacon = derive_key(key, SALT_BEACON_LOSS)
        self._k_ps = derive_key(key, SALT_PS_LOSS)
        self._k_rach = derive_key(key, SALT_RACH_COLLISION)
        self._k_drop = derive_key(key, SALT_EVENT_DROP)

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config) -> "FaultPlan | None":
        """Plan for a :class:`~repro.core.config.PaperConfig` — or ``None``.

        The key is a pure hash of ``config.seed``: no generator stream is
        consumed, so fault-free runs are bit-identical with or without
        this call.
        """
        fc = getattr(config, "faults", None)
        if fc is None or not fc.active:
            return None
        key = int(splitmix64(_U64(config.seed % (2**64)) ^ SALT_FAULT_KEY))
        return cls(key, fc, config.n_devices)

    # ------------------------------------------------------------------
    @property
    def has_drift(self) -> bool:
        return self.config.drift_std > 0

    def dead_by(self, t_ms: float) -> np.ndarray:
        """Boolean (n,): device has crashed at or before ``t_ms``."""
        return self.crash_time_ms <= t_ms

    def stalled_at(self, t_ms: float) -> np.ndarray:
        """Boolean (n,): device is inside its stall window at ``t_ms``."""
        return (self.stall_start_ms <= t_ms) & (t_ms < self.stall_end_ms)

    def beacon_lost(
        self, event: int | np.ndarray, tx: np.ndarray, rx: np.ndarray
    ) -> np.ndarray:
        """Per-(event, tx, rx) beacon-decode erasure decisions.

        ``event`` may be a per-edge array (batch kernels) broadcasting
        against ``tx``/``rx``; elements hash independently, so batched
        decisions equal scalar per-event ones bitwise.
        """
        if self.config.beacon_loss <= 0:
            return np.zeros(np.broadcast(tx, rx).shape, dtype=bool)
        sub = splitmix64(self._k_beacon ^ np.asarray(event, dtype=np.uint64))
        return hashed_uniform(directed_code(tx, rx), sub) < self.config.beacon_loss

    def ps_lost(self, event: int, rx: np.ndarray) -> np.ndarray:
        """Per-(event, receiver) sync-pulse erasure decisions."""
        if self.config.ps_loss <= 0:
            return np.zeros(np.shape(rx), dtype=bool)
        sub = splitmix64(self._k_ps ^ _U64(event))
        return hashed_uniform(np.asarray(rx, dtype=np.uint64), sub) < (
            self.config.ps_loss
        )

    def rach_collided(self, period: int, devices: np.ndarray) -> np.ndarray:
        """Per-(burst, device) preamble-collision decisions.

        One decision covers ``collision_burst_periods`` consecutive
        periods, so collisions arrive in bursts — the regime exponential
        backoff exists for.
        """
        if self.config.rach_collision <= 0:
            return np.zeros(np.shape(devices), dtype=bool)
        burst = int(period) // self.config.collision_burst_periods
        sub = splitmix64(self._k_rach ^ _U64(burst))
        return hashed_uniform(np.asarray(devices, dtype=np.uint64), sub) < (
            self.config.rach_collision
        )

    def event_dropped(self, seq: int) -> bool:
        """Per-callback engine drop decision (hashed on the event seq)."""
        if self.config.event_drop <= 0:
            return False
        u = hashed_uniform(_U64(seq), self._k_drop)
        return bool(u < self.config.event_drop)

    def __repr__(self) -> str:
        crashes = int(np.isfinite(self.crash_time_ms).sum())
        stalls = int(np.isfinite(self.stall_start_ms).sum())
        return (
            f"FaultPlan(n={self.n}, crashes={crashes}, stalls={stalls}, "
            f"key={self.key:#x})"
        )
