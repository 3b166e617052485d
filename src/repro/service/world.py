"""Steady-state world: Poisson churn over a fixed device universe.

The service's world is the PR 3 churn machinery promoted from a finite
scenario to an open-ended process.  A :class:`PaperConfig` defines the
*universe* — ``n_devices`` capacity slots with fixed positions and link
structure, no dense views — and a subset is active at any moment.  Each call to :meth:`SteadyStateWorld.step` advances one
epoch of ``step_ms`` simulated milliseconds:

* arrival and departure **counts** are Poisson draws inverted from
  counter-hashed uniforms keyed by ``(seed, step index, direction)`` —
  pure functions of event identity, so stepping is resumable and two
  worlds with the same seed replay the same churn forever;
* **victims** are picked by hashing ``(seed, step, direction, i)`` into
  the sorted candidate pool, then applied through
  :class:`~repro.core.churn.ChurnSession` (attach-over-heaviest-link
  joins, fragment-preserving repairs) with the optimality oracle off;
* events land on the deterministic engine at evenly spaced offsets
  inside the epoch and the clock advances with
  :meth:`~repro.sim.engine.Engine.advance`.

Population is clamped to ``[min_population, max_population]`` *before*
events are scheduled, so bounds hold at every intermediate instant, not
just at epoch edges.  Pausing freezes the clock without consuming any
randomness: the post-resume event stream is identical to the unpaused
one, which the Hypothesis suite pins down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.churn import ChurnEvent, ChurnSession
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.discovery.live import LiveNeighborView
from repro.obs import Observability
from repro.obs.sse import SSEBridge
from repro.obs.stream import _mix64
from repro.sim.engine import Engine
from repro.spanningtree.liveview import FragmentView

_MASK = 0xFFFFFFFFFFFFFFFF

#: hash salts separating the world's random streams
_SALT_COUNT_ARRIVE = 0xA11CE
_SALT_COUNT_DEPART = 0xDEAD1
_SALT_PICK_ARRIVE = 0x9ECA11
_SALT_PICK_DEPART = 0x0FF01


class WorldPausedError(RuntimeError):
    """Raised when stepping a paused world (the service's 409)."""


@dataclass(frozen=True)
class WorldConfig:
    """Steady-state world parameters around a base :class:`PaperConfig`.

    ``arrival_rate`` / ``departure_rate`` are Poisson means per epoch.
    Defaults hold the expected population flat at ``initial_population``
    only when the two rates match; asymmetric rates drift toward the
    clamping bounds, which is itself a useful stress scenario.
    """

    base: PaperConfig = field(default_factory=PaperConfig)
    arrival_rate: float = 2.0
    departure_rate: float = 2.0
    initial_population: int | None = None  # default: 3/4 of the universe
    min_population: int = 2
    max_population: int | None = None  # default: the whole universe
    step_ms: float = 1000.0

    def __post_init__(self) -> None:
        n = self.base.n_devices
        if self.arrival_rate < 0 or self.departure_rate < 0:
            raise ValueError("churn rates must be >= 0")
        if self.step_ms <= 0:
            raise ValueError("step_ms must be positive")
        if self.min_population < 1:
            raise ValueError("min_population must be >= 1")
        if self.resolved_max_population > n:
            raise ValueError(
                f"max_population {self.resolved_max_population} exceeds "
                f"universe size {n}"
            )
        if self.min_population > self.resolved_max_population:
            raise ValueError("min_population exceeds max_population")
        init = self.resolved_initial_population
        if not self.min_population <= init <= self.resolved_max_population:
            raise ValueError(
                f"initial_population {init} outside "
                f"[{self.min_population}, {self.resolved_max_population}]"
            )

    @property
    def resolved_max_population(self) -> int:
        return (
            self.base.n_devices
            if self.max_population is None
            else self.max_population
        )

    @property
    def resolved_initial_population(self) -> int:
        if self.initial_population is not None:
            return self.initial_population
        guess = max(2, (3 * self.base.n_devices) // 4)
        return min(max(guess, self.min_population), self.resolved_max_population)


def poisson_from_uniform(lam: float, u: float) -> int:
    """Invert the Poisson CDF at ``u`` — deterministic, no RNG state.

    Straight cumulative-sum inversion; fine for the service-scale means
    (tens per epoch).  The tail is capped at mean + 12 sigma + 16 so a
    pathological ``u`` ~ 1.0 cannot loop unboundedly.
    """
    if lam <= 0.0:
        return 0
    cap = int(lam + 12.0 * math.sqrt(lam) + 16.0)
    p = math.exp(-lam)
    cdf = p
    k = 0
    while u > cdf and k < cap:
        k += 1
        p *= lam / k
        cdf += p
    return k


class SteadyStateWorld:
    """A churning population served as a live query surface.

    All query state — active mask, neighbour view, fragment view — is
    maintained incrementally; the fragment view rebuilds lazily only
    when ``tree_version`` moved since it was last computed.
    """

    def __init__(
        self,
        config: WorldConfig,
        *,
        obs: Observability | None = None,
        sse_capacity: int = 1024,
    ) -> None:
        self.config = config
        self.obs = obs if obs is not None else Observability(stream=True)
        if self.obs.bus is None:
            raise ValueError("world observability must carry a telemetry bus")
        self.sse = SSEBridge(capacity=sse_capacity)
        self.obs.bus.subscribe(self.sse)
        self.network = D2DNetwork(config.base)
        init = config.resolved_initial_population
        initially_active = set(range(init))
        # greedy repair keeps per-failure cost proportional to the damage
        # (the optimal Borůvka repair is O(E) — unaffordable per event on
        # a continuously churning 100k-UE world)
        self.session = ChurnSession(
            self.network,
            initially_active,
            track_optimality=False,
            repair="greedy",
        )
        self.active_mask = np.zeros(self.network.n, dtype=bool)
        self.active_mask[list(initially_active)] = True
        self.engine = Engine(obs=self.obs)
        self.neighbors = LiveNeighborView(self.network, self.active_mask)
        self.step_index = 0
        self.paused = False
        self.tree_version = 0
        self._fragment_view: FragmentView | None = None
        self._publish_state()

    # ------------------------------------------------------------------
    # deterministic randomness: pure functions of (seed, event identity)
    # ------------------------------------------------------------------
    def _hash(self, salt: int, *parts: int) -> int:
        h = _mix64((self.config.base.seed ^ salt) & _MASK)
        for part in parts:
            h = _mix64((h ^ part) & _MASK)
        return h

    def _u01(self, salt: int, *parts: int) -> float:
        # 53-bit mantissa slice for an unbiased float in [0, 1)
        return (self._hash(salt, *parts) >> 11) / float(1 << 53)

    def churn_schedule(self, step: int) -> tuple[int, int]:
        """Unclamped Poisson (arrivals, departures) for epoch ``step``.

        Pure function of ``(seed, step)`` — does not read or advance any
        world state, which is exactly the property the Hypothesis suite
        asserts.
        """
        arrivals = poisson_from_uniform(
            self.config.arrival_rate, self._u01(_SALT_COUNT_ARRIVE, step)
        )
        departures = poisson_from_uniform(
            self.config.departure_rate, self._u01(_SALT_COUNT_DEPART, step)
        )
        return arrivals, departures

    def _pick(self, salt: int, step: int, i: int, pool: list[int]) -> int:
        return pool.pop(self._hash(salt, step, i) % len(pool))

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    @property
    def population(self) -> int:
        return len(self.session.active)

    @property
    def now_ms(self) -> float:
        return self.engine.now

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def step(self, *, trace=None) -> list[ChurnEvent]:
        """Advance one epoch; returns the churn events that fired.

        ``trace`` is an optional ops-plane
        :class:`~repro.obs.ops.TraceContext` (the serving request's
        span).  When the bundle carries an ops plane the epoch is
        recorded as a ``world.step`` span — with a fresh trace id when
        unparented, so autonomous stepping is traceable too.  The
        deterministic plane never sees any of it.
        """
        ops = self.obs.ops
        if ops is None:
            return self._step_inner(trace=None)
        with ops.span(
            "world.step", parent=trace, step=self.step_index
        ) as ctx:
            return self._step_inner(trace=ctx)

    def _step_inner(self, *, trace) -> list[ChurnEvent]:
        if self.paused:
            raise WorldPausedError(
                f"world is paused at t={self.engine.now:.1f}ms"
            )
        step = self.step_index
        arrivals, departures = self.churn_schedule(step)
        pop = self.population
        # clamp so every intermediate instant respects the bounds:
        # departures execute first within the epoch, then arrivals
        departures = min(departures, pop - self.config.min_population)
        arrivals = min(
            arrivals,
            self.config.resolved_max_population - (pop - departures),
            self.network.n - pop,  # free capacity slots
        )
        departures = max(0, departures)
        arrivals = max(0, arrivals)

        depart_pool = sorted(self.session.active)
        plan: list[tuple[str, int]] = []
        for i in range(departures):
            plan.append(
                ("fail", self._pick(_SALT_PICK_DEPART, step, i, depart_pool))
            )
        arrive_pool = sorted(
            set(range(self.network.n))
            - self.session.active
            - {d for _, d in plan}
        )
        for i in range(arrivals):
            plan.append(
                ("join", self._pick(_SALT_PICK_ARRIVE, step, i, arrive_pool))
            )

        fired: list[ChurnEvent] = []
        spacing = self.config.step_ms / (len(plan) + 1)
        for idx, (kind, device) in enumerate(plan):
            self.engine.schedule(
                spacing * (idx + 1),
                self._make_churn_callback(kind, device, fired),
            )
        self.engine.advance(self.config.step_ms, trace=trace)
        self.step_index += 1
        self._publish_state()
        return fired

    def _make_churn_callback(
        self, kind: str, device: int, sink: list[ChurnEvent]
    ) -> callable:
        def fire() -> None:
            if kind == "fail":
                event = self.session.fail(device)
                self.active_mask[device] = False
            else:
                event = self.session.join(device)
                self.active_mask[device] = True
            self.tree_version += 1
            sink.append(event)
            bus = self.obs.bus
            bus.publish(
                "churn",
                self.engine.now,
                labels={"kind": kind},
                device=device,
                messages=event.messages,
                succeeded=int(event.succeeded),
                population=event.active_count,
            )
            self.obs.metrics.counter(
                "service_churn_total",
                help="churn events applied by the steady-state world",
                unit="events",
            ).inc(1, kind=kind)

        return fire

    def _publish_state(self) -> None:
        view = self.fragment_view()
        self.obs.bus.publish(
            "fragments",
            self.engine.now,
            count=view.count,
            largest=view.largest,
            phase=self.step_index,
        )
        g = self.obs.metrics.gauge
        g("world_population", help="active devices in the live world").set(
            self.population
        )
        g("world_step", help="epochs stepped by the steady-state world").set(
            self.step_index
        )
        g("world_fragments", help="fragments over the active population").set(
            view.count
        )

    # ------------------------------------------------------------------
    # query views
    # ------------------------------------------------------------------
    def is_active(self, device: int) -> bool:
        return 0 <= device < self.network.n and bool(self.active_mask[device])

    def fragment_view(self) -> FragmentView:
        """Current fragment decomposition (lazily rebuilt)."""
        cached = self._fragment_view
        if cached is None or cached.version != self.tree_version:
            cached = FragmentView(
                self.network.n,
                self.session.tree_edges,
                self.active_mask,
                version=self.tree_version,
            )
            self._fragment_view = cached
        return cached

    def sync_state(self) -> dict[str, float | int | bool]:
        """Live sync summary from the tree (the service's ``GET /sync``).

        ``residual_bound_ms`` is the ST residual-spread contract: after
        tree-timed synchronization every pair is within two slots.
        """
        cfg = self.config.base
        view = self.fragment_view()
        return {
            "time_ms": self.engine.now,
            "active": self.population,
            "fragments": view.count,
            "largest_fragment": view.largest,
            "spanning": view.is_spanning,
            "sync_window_ms": cfg.sync_window_ms,
            "residual_bound_ms": 2 * cfg.slot_ms,
        }
