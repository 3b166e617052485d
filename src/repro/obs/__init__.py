"""Unified observability layer: metrics, spans, probes, exporters.

One :class:`Observability` bundle travels through a run and collects

* **metrics** — counters/gauges/histograms in a
  :class:`~repro.obs.metrics.MetricsRegistry` (message bills by
  kind/codec, fragment counts, sync-error distributions, ...);
* **spans** — hierarchical wall-clock timing
  (:class:`~repro.obs.spans.SpanRecorder`) for ``repro profile``; the
  ops plane's request traces are trees of the same
  :class:`~repro.obs.spans.Span` type;
* **trace** — optional per-event :class:`~repro.sim.trace.TraceRecorder`
  retention for JSONL export (off by default: per-pulse tracing is the
  one genuinely hot-path cost);
* **probes** — periodic protocol samples
  (:class:`~repro.obs.probes.ProbeSet`): sync spread, fragment sizes,
  neighbour-table fill.

``STSimulation``/``FSTSimulation`` create a private bundle per run when
none is supplied, so every :class:`~repro.core.results.RunResult` carries
a metrics snapshot.  Hot kernels (:class:`~repro.core.pulsesync.
SparsePulseSyncKernel`, :class:`~repro.core.beacon.SparseBeaconDiscovery`,
:class:`~repro.sim.engine.Engine`) take ``obs=None`` and skip all
instrumentation when unset — the disabled path adds no per-event work.

An *active* bundle can be installed for a dynamic scope with
:func:`activate`; simulations with no explicit ``obs`` adopt it.  That is
how ``repro profile`` aggregates span trees across a whole experiment
without threading a parameter through every driver.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.aggregate import (
    canonical_snapshot,
    merge_snapshots,
    read_snapshot,
    to_registry,
    worker_snapshot,
    write_snapshot,
)
from repro.obs.exporters import (
    read_jsonl_trace,
    render_prometheus,
    write_jsonl_trace,
    write_metrics_json,
)
from repro.obs.flight import FlightRecorder, render_flight_html
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.ops import _OPEN, OpsPlane, default_ops, default_plane
from repro.obs.probes import ProbeSet
from repro.obs.sse import SSEBridge
from repro.obs.spans import _NULL_SPAN, SpanRecorder
from repro.obs.stream import TelemetryBus, TelemetryEvent
from repro.sim.trace import TraceRecorder

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "OpsPlane",
    "SSEBridge",
    "TelemetryBus",
    "TelemetryEvent",
    "activate",
    "active_span",
    "canonical_snapshot",
    "default_ops",
    "default_plane",
    "get_active",
    "merge_snapshots",
    "read_jsonl_trace",
    "read_snapshot",
    "render_flight_html",
    "render_prometheus",
    "to_registry",
    "worker_snapshot",
    "write_jsonl_trace",
    "write_metrics_json",
    "write_snapshot",
]


class Observability:
    """Bundle of the four observability facilities for one scope.

    Parameters
    ----------
    enabled:
        When False, spans become no-ops and no trace is kept.  Metrics
        and probes stay live — they are the accounting source of truth
        and amortized O(1) per run section, not per event.
    keep_trace:
        Retain per-event :class:`TraceRecord` objects for JSONL export.
        This is the only per-transmission cost, so it is opt-in.
    stream:
        Attach a :class:`~repro.obs.stream.TelemetryBus` as ``self.bus``
        with the default analyzer set from
        :func:`repro.obs.analyzers.default_analyzers` subscribed.  Off
        by default; kernels guard every publish behind
        ``bus is not None``, so a bundle without a bus pays nothing.

    The bundle also carries ``self.ops`` — the non-canonical
    :class:`~repro.obs.ops.OpsPlane`, ``None`` unless one was installed
    process-wide (:func:`~repro.obs.ops.install_default`) or attached
    explicitly by the service wiring.  Everything above stays on the
    deterministic plane; the ops plane keeps its own sibling registry
    and alert list, and is excluded from every canonical export.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        keep_trace: bool = False,
        stream: bool = False,
    ) -> None:
        self.enabled = enabled
        self.ops: OpsPlane | None = default_plane()
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(enabled=enabled)
        self.trace: TraceRecorder | None = (
            TraceRecorder() if keep_trace and enabled else None
        )
        self.probes = ProbeSet()
        self.bus: TelemetryBus | None = None
        if stream and enabled:
            from repro.obs.analyzers import default_analyzers

            self.bus = TelemetryBus(metrics=self.metrics)
            # deterministic distribution sample of the convergence signal
            self.bus.add_reservoir("sync", "spread_ms", capacity=256, seed=0)
            for analyzer in default_analyzers():
                self.bus.subscribe(analyzer)

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Open a timing span (no-op context when disabled)."""
        return self.spans.span(name, **attrs)

    def account_messages(
        self, algorithm: str, bill: dict[str, tuple[int, str]]
    ) -> dict[str, int]:
        """Bill control messages and return the plain per-kind breakdown.

        ``bill`` maps message kind to ``(count, codec)``.  Every entry is
        recorded into the ``messages_total`` counter *and* returned as the
        ``RunResult.message_breakdown`` dict, so the Fig. 4 totals and the
        observability counters share one accounting path and cannot
        drift (asserted in ``tests/test_obs_integration.py``).
        """
        counter = self.metrics.counter(
            "messages_total",
            help="control messages until convergence, by kind and codec",
            unit="messages",
        )
        breakdown: dict[str, int] = {}
        for kind, (count, codec) in sorted(bill.items()):
            counter.inc(count, algorithm=algorithm, kind=kind, codec=codec)
            breakdown[kind] = count
        return breakdown

    def reset(self) -> None:
        """Clear all collected data (metric definitions survive)."""
        self.metrics.reset()
        self.spans.clear()
        self.probes.clear()
        if self.trace is not None:
            self.trace.clear()
        if self.bus is not None:
            self.bus.clear()


# ----------------------------------------------------------------------
# active-bundle scoping
# ----------------------------------------------------------------------
_ACTIVE: list[Observability] = []


def get_active() -> Observability | None:
    """The innermost bundle installed with :func:`activate`, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate(obs: Observability) -> Iterator[Observability]:
    """Install ``obs`` as the ambient bundle for the ``with`` body."""
    _ACTIVE.append(obs)
    try:
        yield obs
    finally:
        _ACTIVE.pop()


def active_span(name: str, **attrs: Any):
    """A span on the active bundle, else in the innermost open ops trace
    (so layer spans nest under ``world.step``); the shared no-op when
    neither exists or the bundle is disabled (no allocation, no clock
    read)."""
    if _ACTIVE:
        return _ACTIVE[-1].spans.span(name, **attrs)
    open_ = _OPEN.get()
    if open_:
        return open_[-1][1].span(name, **attrs)
    return _NULL_SPAN
