"""The ops plane: wall-clock observability that never touches canon.

Everything in :mod:`repro.obs` so far lives on the *deterministic
plane*: metrics, spans and telemetry that are pure functions of the
seed, byte-identical across replays, and therefore admissible in golden
traces and service responses.  That contract is exactly why request
latency has no home there — wall clock poisons byte-determinism.

:class:`OpsPlane` is the second, explicitly **non-canonical** plane an
operator of ``repro serve`` needs:

* **request-scoped tracing** — ops traces are ordinary
  :class:`~repro.obs.spans.Span` trees nested by dynamic scope: the
  outermost :meth:`OpsPlane.span` (a sampled service request, an
  unparented world step, a ``run_city``) mints the trace id, and
  everything opened inside it — ``world.step``, ``engine.advance``, the
  churn and ``build.*`` layer spans reached through
  :func:`~repro.obs.active_span` — becomes its subtree.  Shard pool
  workers record into a recorder of their own (:func:`collect_spans`)
  and ``run_city`` grafts the returned documents under ``shard.run_city``.
  Finished traces are queryable via ``GET /trace/{id}`` and rendered by
  ``repro trace`` with the same tree renderer as ``repro profile``;
* **latency SLOs** — per-endpoint wall-clock histograms with
  :class:`SLOObjective` targets (e.g. p99 ≤ 10 ms for ``/near``), one
  :class:`SLOBurnRate` detector per objective emitting structured
  :class:`~repro.obs.analyzers.Alert` records, and exemplar trace ids
  attached to slow histogram buckets;
* a sibling :class:`~repro.obs.metrics.MetricsRegistry` that is
  **excluded** from ``GET /metrics``, ``metrics_document`` and every
  conformance artifact.

The separation is load-bearing, not cosmetic: SLO alerts depend on the
machine's clock, so they must not land in the world's ``alerts_total``
counter or its SSE stream — the plane keeps its own alert list and
counter instead, and ``tests/test_service_ops.py`` proves service
responses and goldens stay byte-identical with the plane on and off.

The hot path is built for a ≤ 5% overhead budget on a ~100 µs request
(``bench_service.py`` enforces ``ops_overhead_ratio``): requests are
queued as tuples and drained in batches of :data:`FLUSH_INTERVAL` into
the histogram, the SLO windows and the flight recorder, request spans
are only opened for 1-in-:data:`TRACE_SAMPLE` requests and closed traces
join the store in the same batches, and a 5xx flushes immediately so
post-mortem dumps stay timely.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.obs.analyzers import Alert, Analyzer
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanRecorder

#: Latency histogram bucket bounds in milliseconds (service request
#: scale: sub-ms cache hits through a 1 s pathological tail).
LATENCY_BUCKETS_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0)

#: Prometheus ``le`` label per bucket, precomputed once — ``repr`` per
#: request was a measurable slice of the overhead budget.
_LE_LABELS = tuple(repr(b) for b in LATENCY_BUCKETS_MS)

#: Retained finished traces (whole traces are evicted FIFO, counted).
TRACE_CAPACITY = 256

#: Trace 1-in-N requests.  Span objects cost a few µs each; sampling
#: keeps the ops plane inside its ≤ 5% overhead budget while exemplars
#: still reach every latency bucket.
TRACE_SAMPLE = 16

#: Queued request records drained per batch; bounds both the amortised
#: per-request cost and how stale SLO windows may run between reads
#: (readers always flush first, so staleness never reaches a scrape).
#: Larger batches amortise the drain's cache warm-up over more records.
FLUSH_INTERVAL = 256

#: Burn-rate detector: sliding window (matching requests), the fewest
#: requests in the window before it may alert, and the burn rate (bad
#: fraction over the error budget) that fires an alert.
BURN_WINDOW = 200
BURN_MIN_EVENTS = 20
BURN_LIMIT = 2.0

#: The ops traces open in this context, innermost last, as ``(trace id,
#: recorder)`` pairs (id ``None`` for a :func:`collect_spans` recorder);
#: :func:`~repro.obs.active_span` records into the innermost one when no
#: bundle is active.  A context variable, so each thread and asyncio task
#: nests its own spans.
_OPEN: ContextVar[tuple[tuple[str | None, SpanRecorder], ...]] = ContextVar(
    "repro_ops_traces", default=()
)


def open_trace_id() -> str | None:
    """The id of the innermost ops trace open in this context, if any."""
    open_ = _OPEN.get()
    return open_[-1][0] if open_ else None


@contextmanager
def collect_spans(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Record the ``with`` body's ops spans into ``recorder``.

    A shard worker runs under one: pool processes cannot reach the
    parent's open trace, so each returns ``recorder.to_dicts()`` and
    ``run_city`` grafts the documents under its own span.
    """
    token = _OPEN.set(_OPEN.get() + ((None, recorder),))
    try:
        yield recorder
    finally:
        _OPEN.reset(token)


class _TraceRoot:
    """The root span of a new ops trace: while open it is the trace
    spans nest into; on close its tree is queued for the plane's store.
    A class rather than a generator because sampled requests open one."""

    __slots__ = ("_plane", "_trace_id", "_recorder", "_span", "_token")

    def __init__(self, plane: "OpsPlane", name: str, attrs: dict) -> None:
        self._plane = plane
        self._trace_id = f"t{next(plane._trace_ids):08x}"
        self._recorder = SpanRecorder()
        self._recorder.clock = plane.clock
        self._span = self._recorder.span(name, **attrs)

    def __enter__(self) -> Span:
        self._token = _OPEN.set(_OPEN.get() + ((self._trace_id, self._recorder),))
        return self._span.__enter__()

    def __exit__(self, *exc: object) -> None:
        self._span.__exit__(*exc)
        _OPEN.reset(self._token)
        finished = self._plane._finished
        finished.append((self._trace_id, self._recorder.roots[0]))
        if len(finished) >= FLUSH_INTERVAL:
            self._plane._store_finished()


# ----------------------------------------------------------------------
# SLOs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLOObjective:
    """One service-level objective over the request stream.

    ``kind="latency"`` counts a request as *bad* when its wall time
    exceeds ``threshold_ms``; ``kind="availability"`` when its status is
    a 5xx.  ``objective`` is the required good fraction, so the error
    budget is ``1 - objective`` and the burn rate is the observed bad
    fraction divided by that budget (burn 1.0 = exactly on budget).
    """

    name: str
    endpoint: str  # endpoint template, or "*" for every endpoint
    kind: str = "latency"  # "latency" | "availability"
    threshold_ms: float = 10.0
    objective: float = 0.99

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "availability"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")

    def is_bad(self, *, elapsed_ms: float, status: int) -> bool:
        if self.kind == "availability":
            return status >= 500
        return elapsed_ms > self.threshold_ms


def default_slos() -> tuple[SLOObjective, ...]:
    """The stock objectives ``repro serve`` runs under."""
    return (
        SLOObjective(
            name="near-p99",
            endpoint="/near/{ue}",
            kind="latency",
            threshold_ms=10.0,
            objective=0.99,
        ),
        SLOObjective(
            name="all-p99",
            endpoint="*",
            kind="latency",
            threshold_ms=50.0,
            objective=0.99,
        ),
        SLOObjective(
            name="availability",
            endpoint="*",
            kind="availability",
            objective=0.999,
        ),
    )


class SLOBurnRate(Analyzer):
    """Burn-rate detector over the ops plane's request stream.

    Maintains a sliding window of the last :data:`BURN_WINDOW` matching
    requests and fires one structured alert per episode when the burn
    rate — observed bad fraction over the SLO's error budget — reaches
    :data:`BURN_LIMIT` with at least :data:`BURN_MIN_EVENTS` in the
    window.  The detector re-arms once the burn drops back under the
    limit, so a sustained violation yields one alert, not one per
    request.  Availability violations are ``critical``; latency ones
    ``warning``.

    Fed in batches through :meth:`ingest` by :meth:`OpsPlane.flush`
    (the window count is maintained incrementally — no per-request
    window scan); fired alerts collect on :attr:`alerts`, from which the
    plane relays them.
    """

    name = "slo_burn_rate"

    def __init__(self, slo: SLOObjective) -> None:
        super().__init__()
        self.slo = slo
        #: sequence numbers (per matching request) of *bad* requests —
        #: a sparse window: the healthy path never touches a ring at
        #: all, which is what keeps three analyzers inside the ops
        #: overhead budget
        self._bad_seq: deque[int] = deque()
        self.seen = 0
        self.burn = 0.0
        self._armed = True

    def ingest(
        self, records: list[tuple], summary: tuple | None = None
    ) -> None:
        """Account a batch of request records (see ``_REQUEST_RECORD``).

        ``summary`` is the plane's per-batch digest ``(counts, maxes,
        five_xx_endpoint)`` — when the window holds no bad requests and
        the digest proves the whole batch is clean for this SLO, the
        batch reduces to a counter bump (O(endpoints), not O(records)).
        """
        slo = self.slo
        endpoint_filter = slo.endpoint
        match_all = endpoint_filter == "*"
        availability = slo.kind == "availability"
        threshold_ms = slo.threshold_ms
        threshold_s = threshold_ms / 1000.0  # records carry raw seconds
        if summary is not None and not self._bad_seq:
            counts, maxes, five_xx_endpoint = summary
            if availability:
                # the digest only carries the *first* 5xx endpoint, so
                # any 5xx sends the whole batch down the slow path
                clean = five_xx_endpoint is None
            elif match_all:
                clean = (
                    max(maxes.values()) <= threshold_ms if maxes else True
                )
            else:
                clean = maxes.get(endpoint_filter, 0.0) <= threshold_ms
            if clean:
                if match_all:
                    matching = sum(counts.values())
                else:
                    matching = sum(
                        n
                        for key, n in counts.items()
                        if key[0] == endpoint_filter
                    )
                if matching:
                    self.seen += matching
                    self.burn = 0.0
                    if min(self.seen, BURN_WINDOW) >= BURN_MIN_EVENTS:
                        self._armed = True
                return
        budget = 1.0 - slo.objective
        bad_seq = self._bad_seq
        window = BURN_WINDOW
        min_events = BURN_MIN_EVENTS
        burn_limit = BURN_LIMIT
        seen = self.seen
        for rec in records:
            if not match_all and rec[0] != endpoint_filter:
                continue
            seen += 1
            if rec[2] >= 500 if availability else rec[3] > threshold_s:
                bad_seq.append(seen)
            elif not bad_seq:
                continue  # all-good window: burn already 0, stay cheap
            floor = seen - window
            while bad_seq and bad_seq[0] <= floor:
                bad_seq.popleft()
            n = window if seen > window else seen
            if not bad_seq:
                self.burn = 0.0
                if n >= min_events:
                    self._armed = True
                continue
            burn = self.burn = (len(bad_seq) / n) / budget
            if n >= min_events:
                if burn >= burn_limit:
                    if self._armed:
                        self._armed = False
                        severity = (
                            "critical" if availability else "warning"
                        )
                        self.fire(
                            rec[6] * 1000.0,
                            severity,
                            f"SLO {slo.name} burning at {burn:.1f}x budget "
                            f"({len(bad_seq) / n:.1%} bad over last {n} "
                            f"requests)",
                            slo=slo.name,
                            kind=slo.kind,
                            endpoint=endpoint_filter,
                            burn=burn,
                            window=n,
                        )
                else:
                    self._armed = True
        self.seen = seen

    def status(self) -> dict[str, Any]:
        """JSON-safe snapshot for ``GET /ops/slo``."""
        return {
            "slo": self.slo.name,
            "endpoint": self.slo.endpoint,
            "kind": self.slo.kind,
            "threshold_ms": self.slo.threshold_ms,
            "objective": self.slo.objective,
            "seen": self.seen,
            "window": min(self.seen, BURN_WINDOW),
            "bad_in_window": len(self._bad_seq),
            "burn_rate": self.burn,
            "alerts": len(self.alerts),
        }


# ----------------------------------------------------------------------
# the plane
# ----------------------------------------------------------------------
class OpsPlane:
    """Sibling registry + trace store + SLO machinery for one service.

    Holds its own :class:`MetricsRegistry` (never the world's), a
    bounded store of finished traces, one :class:`SLOBurnRate` detector
    per :func:`default_slos` objective and the alerts they fired.
    ``clock`` is injectable so tests can drive deterministic latencies.

    Request accounting is batched: :meth:`observe_request` appends one
    tuple (the ``_REQUEST_RECORD`` layout) and :meth:`flush` drains the
    queue — every :data:`FLUSH_INTERVAL` records, immediately on a 5xx,
    and before any reader (``slo_status``, the flight bundle) looks.
    The app opens a request span only for the requests
    :meth:`sample_request` picks (1 in :data:`TRACE_SAMPLE`).
    """

    def __init__(
        self,
        *,
        flight: Any | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.clock = clock
        self._traces: OrderedDict[str, Span] = OrderedDict()
        #: closed traces not yet in ``_traces`` (see ``_store_finished``)
        self._finished: list[tuple[str, Span]] = []
        self.traces_evicted = 0
        self._trace_ids = itertools.count(1)
        self._request_seq = 0
        self._raw: list[tuple] = []
        self.exemplars: dict[tuple[str, str], str] = {}
        self.analyzers = [SLOBurnRate(slo) for slo in default_slos()]
        #: SLO alerts fired so far, oldest first (``GET /ops/slo``)
        self.alerts: list[Alert] = []
        self.flight = flight
        # hot-path metric handles, resolved once (per-request registry
        # lookups were a measurable slice of the overhead budget)
        self._latency_hist = self.metrics.histogram(
            "request_latency_ms",
            buckets=LATENCY_BUCKETS_MS,
            help="wall-clock request latency by endpoint (ops plane only)",
            unit="ms",
        )
        self._bound_hists: dict[str, Any] = {}
        self._requests_counter = self.metrics.counter(
            "ops_requests_total",
            help="requests accounted by the ops plane",
            unit="requests",
        )
        self._spans_counter = self.metrics.counter(
            "ops_trace_spans_total",
            help="wall-clock spans recorded by the ops plane",
            unit="spans",
        )
        self._evicted_counter = self.metrics.counter(
            "ops_traces_evicted_total",
            help="finished traces evicted from the bounded store",
            unit="traces",
        )
        self._alerts_counter = self.metrics.counter(
            "alerts_total",
            help="structured alerts fired by online analyzers",
            unit="alerts",
        )

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Open a wall-clock span in the ops trace open in this context.

        With no trace open this span becomes a root: it mints the trace
        id (a sampled request, an unparented world step, a ``run_city``)
        and, once closed, its whole tree enters the bounded store.  Spans
        opened inside it — here or through :func:`~repro.obs.active_span`
        — nest by dynamic scope.  The context manager yields the
        :class:`~repro.obs.spans.Span`.
        """
        open_ = _OPEN.get()
        if open_:
            return open_[-1][1].span(name, **attrs)
        return _TraceRoot(self, name, attrs)

    def _store_finished(self) -> None:
        """Move the traces closed since the last call into the bounded
        store, evicting whole old traces when full.

        Batched off the request path like request accounting: storing
        and counting a trace inline measured ~7 µs per sampled request.
        """
        finished, self._finished = self._finished, []
        traces = self._traces
        evicted = 0
        names: dict[str, int] = {}
        for trace_id, root in finished:
            if len(traces) >= TRACE_CAPACITY:
                traces.popitem(last=False)
                evicted += 1
            traces[trace_id] = root
            stack = [root]
            while stack:
                span = stack.pop()
                names[span.name] = names.get(span.name, 0) + 1
                stack.extend(span.children)
        if evicted:
            self.traces_evicted += evicted
            self._evicted_counter.inc(evicted)
        for name, n in names.items():
            self._spans_counter.inc(n, name=name)

    def trace(self, trace_id: str) -> Span | None:
        """The root span of one finished trace, or ``None``."""
        self._store_finished()
        return self._traces.get(trace_id)

    def trace_ids(self) -> list[str]:
        """Retained trace ids, oldest first."""
        self._store_finished()
        return list(self._traces)

    # ------------------------------------------------------------------
    # request accounting
    # ------------------------------------------------------------------
    def sample_request(self) -> bool:
        """True when the next request should carry a full trace span:
        the first request, then every :data:`TRACE_SAMPLE`-th."""
        seq = self._request_seq = self._request_seq + 1
        return seq % TRACE_SAMPLE == 1

    def observe_request(
        self,
        endpoint: str,
        method: str,
        status: int,
        elapsed_s: float,
        trace_id: str | None = None,
        path: str | None = None,
        *,
        start_s: float,
    ) -> None:
        """Queue one served request for batched accounting.

        ``start_s`` is the clock reading taken when the request arrived
        (``elapsed_s`` is measured from it).

        Record layout (``_REQUEST_RECORD``): ``(endpoint, method,
        status, elapsed_s, trace_id, path, start_s)`` where floats are
        stored raw (unit conversion happens at flush/render time) and
        ``trace_id`` names the request's trace when it was sampled.  A
        5xx drains the queue right away so the flight recorder can dump
        while the evidence is fresh.
        """
        raw = self._raw
        raw.append(
            (
                endpoint,
                method,
                status,
                elapsed_s,
                trace_id,
                endpoint if path is None else path,
                start_s,
            )
        )
        if status >= 500 or len(raw) >= FLUSH_INTERVAL:
            self.flush()

    def flush(self) -> int:
        """Drain queued request records into histogram/SLO/flight state
        and closed traces into the store.

        Called automatically every :data:`FLUSH_INTERVAL` requests, on
        any 5xx, and by every reader (:meth:`slo_status`, the app's ops
        endpoints) — so a scrape never sees a stale window.
        """
        self._store_finished()
        raw = self._raw
        if not raw:
            return 0
        self._raw = []
        bound = self._bound_hists
        hist = self._latency_hist
        exemplars = self.exemplars
        le_labels = _LE_LABELS
        bucket_bounds = LATENCY_BUCKETS_MS
        first_bound = bucket_bounds[0]
        counts: dict[tuple[str, str, int], int] = {}
        maxes: dict[str, float] = {}
        five_xx_endpoint: str | None = None
        for rec in raw:
            endpoint = rec[0]
            elapsed_ms = rec[3] * 1000.0
            entry = bound.get(endpoint)
            if entry is None:
                h = hist.bound(endpoint=endpoint)
                # unwrap the bound view once: this loop is the hottest
                # code the plane owns and the method call was measurable
                entry = bound[endpoint] = h._sample
            if elapsed_ms <= first_bound:  # lowest bucket, the common case
                entry.counts[0] += 1
            else:
                for i, b in enumerate(bucket_bounds):
                    if elapsed_ms <= b:
                        entry.counts[i] += 1
                        break
                else:
                    entry.counts[-1] += 1
            entry.sum += elapsed_ms
            entry.count += 1
            key = (endpoint, rec[1], rec[2])
            counts[key] = counts.get(key, 0) + 1
            if elapsed_ms > maxes.get(endpoint, 0.0):
                maxes[endpoint] = elapsed_ms
            if rec[2] >= 500 and five_xx_endpoint is None:
                five_xx_endpoint = endpoint
            trace_id = rec[4]
            if trace_id is not None:
                for i, b in enumerate(bucket_bounds):
                    if elapsed_ms <= b:
                        exemplars[(endpoint, le_labels[i])] = trace_id
                        break
                else:
                    exemplars[(endpoint, "+inf")] = trace_id
        inc = self._requests_counter.inc
        for (endpoint, method, status), n in counts.items():
            inc(n, endpoint=endpoint, method=method, status=str(status))
        summary = (counts, maxes, five_xx_endpoint)
        for analyzer in self.analyzers:
            fired = len(analyzer.alerts)
            analyzer.ingest(raw, summary)
            for alert in analyzer.alerts[fired:]:
                self._relay_alert(alert)
        flight = self.flight
        if flight is not None:
            if five_xx_endpoint is not None:
                flight.arm(f"5xx:{five_xx_endpoint}")
            flight.ingest_requests(raw)
            flight.maybe_dump()
        return len(raw)

    def _relay_alert(self, alert: Alert) -> None:
        """Keep one SLO alert, count it, and hand it to the recorder."""
        self.alerts.append(alert)
        self._alerts_counter.inc(
            1, analyzer=alert.analyzer, severity=alert.severity
        )
        if self.flight is not None:
            self.flight.on_alert(alert)

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def slo_status(self) -> dict[str, Any]:
        """The ``GET /ops/slo`` document: objectives, burn, exemplars.

        Also refreshes the ``slo_burn_rate`` gauge — deliberately here
        and not per request, which was measurable.
        """
        self.flush()
        gauge = self.metrics.gauge(
            "slo_burn_rate",
            help="observed bad fraction over the SLO error budget",
        )
        for analyzer in self.analyzers:
            gauge.set(analyzer.burn, slo=analyzer.slo.name)
        return {
            "slos": [a.status() for a in self.analyzers],
            "alerts": [a.to_dict() for a in self.alerts],
            "exemplars": [
                {"endpoint": endpoint, "le": le, "trace_id": trace_id}
                for (endpoint, le), trace_id in sorted(self.exemplars.items())
            ],
            "traces_retained": len(self._traces),
            "traces_evicted": self.traces_evicted,
        }


# ----------------------------------------------------------------------
# process-default plane
# ----------------------------------------------------------------------
# ``repro conformance run --ops`` needs every internally constructed
# Observability bundle — golden captures build private ones — to carry
# the ops plane, so that replaying the corpus under full ops
# instrumentation still matches the committed bytes.  A module-level
# default is the only seam that reaches them without threading a
# parameter through every driver.
_DEFAULT: OpsPlane | None = None


def default_plane() -> OpsPlane | None:
    """The process-default ops plane adopted by new bundles, if any."""
    return _DEFAULT


def install_default(plane: OpsPlane | None) -> OpsPlane | None:
    """Install (or clear) the process-default plane; returns the old one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = plane
    return previous


@contextmanager
def default_ops(plane: OpsPlane) -> Iterator[OpsPlane]:
    """Scoped :func:`install_default` (restores the previous plane)."""
    previous = install_default(plane)
    try:
        yield plane
    finally:
        install_default(previous)

