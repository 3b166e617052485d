"""Deterministic event-heap simulation engine.

The engine maintains a binary heap of ``(time, priority, seq, callback)``
entries.  Ties on ``time`` are broken first by an explicit integer
``priority`` (lower runs first) and then by insertion order (``seq``), so a
run is fully deterministic for a given schedule of calls — a property the
reproduction relies on for seed-stable experiment results.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.sim.errors import (
    ScheduleInPastError,
    SimulationLimitExceeded,
    StopSimulation,
)

if TYPE_CHECKING:  # imported lazily to avoid a sim <-> obs import cycle
    from repro.obs import Observability

#: Default hard cap on processed events; generous for all paper workloads.
DEFAULT_EVENT_BUDGET = 50_000_000


@dataclass(order=True)
class _HeapEntry:
    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _HeapEntry) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        """Scheduled firing time (ms)."""
        return self._entry.time

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    def cancel(self) -> bool:
        """Cancel the event; returns ``False`` if it already fired/cancelled.

        Cancellation is lazy: the heap entry stays in place and is skipped
        when popped, which keeps ``cancel`` O(1).
        """
        if self._entry.cancelled:
            return False
        self._entry.cancelled = True
        return True


class Engine:
    """Discrete-event engine with millisecond float time.

    Parameters
    ----------
    event_budget:
        Hard cap on the number of callbacks executed by :meth:`run`.
        Exceeding it raises :class:`SimulationLimitExceeded`.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  The engine
        publishes ``engine_event_budget``, ``engine_events_processed``,
        ``engine_heap_depth_max`` and ``engine_pending`` gauges when each
        :meth:`run` returns (and on demand via :meth:`publish_metrics`);
        the per-event path is untouched either way.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`.  Each executed
        event consults :meth:`~repro.faults.plan.FaultPlan.event_dropped`
        with the event's sequence number; dropped events advance the
        clock and count against the budget but their callback never runs
        (a lost timer/control message).  Decisions hash the sequence
        number, so a rerun of the same schedule drops the same events.

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(5.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [5.0]
    """

    def __init__(
        self,
        event_budget: int = DEFAULT_EVENT_BUDGET,
        obs: "Observability | None" = None,
        faults=None,
    ) -> None:
        if event_budget <= 0:
            raise ValueError("event_budget must be positive")
        self._heap: list[_HeapEntry] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._event_budget = event_budget
        self._running = False
        self._max_heap_depth = 0
        self._obs = obs
        self._faults = faults
        self._events_dropped = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def events_dropped(self) -> int:
        """Number of callbacks suppressed by the fault plan."""
        return self._events_dropped

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for e in self._heap if not e.cancelled)

    @property
    def max_heap_depth(self) -> int:
        """High-water mark of the event heap (including cancelled entries)."""
        return self._max_heap_depth

    def publish_metrics(self) -> None:
        """Write engine gauges into the attached observability bundle."""
        if self._obs is None:
            return
        g = self._obs.metrics.gauge
        g("engine_event_budget", help="hard cap on processed events").set(
            self._event_budget
        )
        g("engine_events_processed", help="callbacks executed so far").set(
            self._events_processed
        )
        g("engine_heap_depth_max", help="event-heap high-water mark").set(
            self._max_heap_depth
        )
        g("engine_pending", help="live events still queued").set(self.pending)
        if self._faults is not None:
            g(
                "engine_events_dropped",
                help="callbacks suppressed by the fault plan",
            ).set(self._events_dropped)
        bus = getattr(self._obs, "bus", None)
        if bus is not None:
            bus.publish(
                "engine",
                self._now,
                events_processed=self._events_processed,
                pending=self.pending,
                heap_depth_max=self._max_heap_depth,
                events_dropped=self._events_dropped,
            )

    def peek(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_cancelled_head()
        return self._heap[0].time if self._heap else None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ms from now."""
        return self.schedule_at(self._now + delay, callback, priority=priority)

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute time ``when`` (ms)."""
        if when < self._now:
            raise ScheduleInPastError(when, self._now)
        entry = _HeapEntry(float(when), priority, next(self._seq), callback)
        heapq.heappush(self._heap, entry)
        if len(self._heap) > self._max_heap_depth:
            self._max_heap_depth = len(self._heap)
        return EventHandle(entry)

    def call_soon(
        self, callback: Callable[[], None], *, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.schedule_at(self._now, callback, priority=priority)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next live event.  Returns ``False`` if queue was empty."""
        self._drop_cancelled_head()
        if not self._heap:
            return False
        entry = heapq.heappop(self._heap)
        self._now = entry.time
        self._events_processed += 1
        if self._events_processed > self._event_budget:
            raise SimulationLimitExceeded(self._event_budget)
        if self._faults is not None and self._faults.event_dropped(entry.seq):
            self._events_dropped += 1
            if self._obs is not None:
                self._obs.metrics.counter(
                    "faults_injected_total",
                    help="fault events injected by the active FaultPlan",
                    unit="events",
                ).inc(1, kind="event_drop")
            return True
        entry.callback()
        return True

    def advance(self, duration_ms: float) -> int:
        """Incrementally advance the clock by exactly ``duration_ms``.

        The resumable stepping API for long-running hosts (the discovery
        service steps its world one epoch at a time instead of running
        the engine to completion): processes every live event scheduled
        inside the window, lands the clock on ``now + duration_ms`` even
        when no event falls there, and returns the number of callbacks
        executed.  Repeated calls pick up where the previous one left
        off; pending events beyond the window stay queued.

        When the attached bundle carries an ops plane the window is
        recorded as an ``engine.advance`` wall-clock span in the open ops
        trace (ops plane only — nothing on the deterministic plane
        changes either way).
        """
        if duration_ms < 0:
            raise ValueError(f"duration_ms must be >= 0, got {duration_ms}")
        before = self._events_processed
        ops = getattr(self._obs, "ops", None) if self._obs is not None else None
        if ops is None:
            self.run(until=self._now + duration_ms)
        else:
            with ops.span("engine.advance", duration_ms=duration_ms):
                self.run(until=self._now + duration_ms)
        return self._events_processed - before

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or time would pass ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if no event falls on it, mirroring SimPy's ``run(until=...)``
        semantics.  A callback may raise :class:`StopSimulation` to halt
        the run early; the clock stays at that callback's time.
        """
        self._running = True
        try:
            while self._heap:
                self._drop_cancelled_head()
                if not self._heap:
                    break
                if until is not None and self._heap[0].time > until:
                    break
                try:
                    self.step()
                except StopSimulation:
                    return
            if until is not None and until > self._now:
                self._now = float(until)
        finally:
            self._running = False
            self.publish_metrics()

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
