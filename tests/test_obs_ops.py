"""Ops-plane unit tests: tracing, SLO burn rates, batched accounting.

The ops plane (:mod:`repro.obs.ops`) is the explicitly non-canonical
sibling of the deterministic telemetry stack — it owns its own metrics
registry and alert list, observes wall-clock facts, and must never feed
anything back.  These tests drive it directly with an injected clock so
latencies (and therefore SLO verdicts) are exact.
"""

from __future__ import annotations

import pytest

from repro.obs.ops import (
    BURN_MIN_EVENTS,
    BURN_WINDOW,
    FLUSH_INTERVAL,
    LATENCY_BUCKETS_MS,
    TRACE_CAPACITY,
    TRACE_SAMPLE,
    OpsPlane,
    OpsSpan,
    SLOBurnRate,
    SLOObjective,
    TraceContext,
    default_plane,
    default_slos,
    default_ops,
    install_default,
    render_trace,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def make_plane(**kwargs) -> OpsPlane:
    kwargs.setdefault("clock", FakeClock())
    return OpsPlane(**kwargs)


def observe(plane: OpsPlane, status: int = 200, elapsed_s: float = 0.001,
            **kwargs) -> None:
    """One ``/near/{ue}`` request that started at the plane's clock."""
    plane.observe_request(
        "/near/{ue}", "GET", status, elapsed_s, start_s=plane.clock(),
        **kwargs,
    )


class TestTraceContext:
    def test_child_links_parent(self):
        root = TraceContext("t1", "s1")
        child = root.child("s2")
        assert child.trace_id == "t1"
        assert child.span_id == "s2"
        assert child.parent_id == "s1"
        assert root.parent_id is None

    def test_to_dict_roundtrip_via_span(self):
        span = OpsSpan(
            trace_id="t1",
            span_id="s1",
            parent_id=None,
            name="GET /near/{ue}",
            start_s=1.0,
            duration_ms=2.5,
            attrs={"path": "/near/3"},
        )
        assert OpsSpan.from_dict(span.to_dict()) == span


class TestSLOObjective:
    def test_latency_bad_over_threshold(self):
        slo = SLOObjective(name="x", endpoint="*", threshold_ms=10.0)
        assert not slo.is_bad(elapsed_ms=10.0, status=200)
        assert slo.is_bad(elapsed_ms=10.1, status=200)

    def test_availability_bad_on_5xx_only(self):
        slo = SLOObjective(name="x", endpoint="*", kind="availability")
        assert not slo.is_bad(elapsed_ms=9999.0, status=404)
        assert slo.is_bad(elapsed_ms=0.1, status=500)

    def test_rejects_unknown_kind_and_objective(self):
        with pytest.raises(ValueError):
            SLOObjective(name="x", endpoint="*", kind="latency99")
        with pytest.raises(ValueError):
            SLOObjective(name="x", endpoint="*", objective=1.0)

    def test_default_slos_cover_near_all_and_availability(self):
        slos = default_slos()
        assert [s.name for s in slos] == [
            "near-p99",
            "all-p99",
            "availability",
        ]
        assert {s.kind for s in slos} == {"latency", "availability"}


class TestTracing:
    def test_span_records_and_trace_reads_back(self):
        plane = make_plane()
        with plane.span("world.step", round=3) as ctx:
            plane.clock.now += 0.002
        spans = plane.trace(ctx.trace_id)
        assert spans is not None and len(spans) == 1
        assert spans[0].name == "world.step"
        assert spans[0].attrs == {"round": 3}
        assert spans[0].duration_ms == pytest.approx(2.0)
        assert spans[0].status == "ok"

    def test_span_marks_error_on_exception(self):
        plane = make_plane()
        with pytest.raises(RuntimeError):
            with plane.span("boom") as ctx:
                raise RuntimeError("x")
        assert plane.trace(ctx.trace_id)[0].status == "error"

    def test_child_spans_share_trace_and_parent(self):
        plane = make_plane()
        with plane.span("parent") as root:
            with plane.span("child", parent=root) as kid:
                pass
        assert kid.trace_id == root.trace_id
        spans = plane.trace(root.trace_id)
        assert {s.name for s in spans} == {"parent", "child"}
        child = next(s for s in spans if s.name == "child")
        assert child.parent_id == root.span_id

    def test_whole_trace_fifo_eviction_is_counted(self):
        plane = make_plane()
        ids = []
        for i in range(TRACE_CAPACITY + 1):
            with plane.span(f"op{i}") as ctx:
                pass
            ids.append(ctx.trace_id)
        assert plane.trace(ids[0]) is None  # oldest whole trace evicted
        assert plane.trace_ids() == ids[1:]
        assert plane.traces_evicted == 1
        assert (
            plane.metrics.counter("ops_traces_evicted_total").total() == 1
        )

    def test_ingest_adopts_out_of_process_span_docs(self):
        plane = make_plane()
        doc = OpsSpan(
            trace_id="tshard",
            span_id="c1:s1",
            parent_id=None,
            name="shard.run_city",
            start_s=5.0,
            duration_ms=12.0,
        ).to_dict()
        assert plane.ingest([doc]) == 1
        assert plane.trace("tshard")[0].name == "shard.run_city"

    def test_sample_request_traces_first_then_one_in_n(self):
        plane = OpsPlane()
        decisions = [plane.sample_request() for _ in range(2 * TRACE_SAMPLE)]
        assert decisions == ([True] + [False] * (TRACE_SAMPLE - 1)) * 2

    def test_default_sample_is_a_sane_fraction(self):
        assert 1 <= TRACE_SAMPLE <= 100


class TestBatchedAccounting:
    def test_records_queue_until_flush_interval(self):
        plane = make_plane()
        hist = plane.metrics.histogram(
            "request_latency_ms", buckets=LATENCY_BUCKETS_MS
        )
        for _ in range(FLUSH_INTERVAL - 1):
            observe(plane)
        assert hist.count(endpoint="/near/{ue}") == 0  # still queued
        observe(plane)  # the last record of the batch drains the queue
        assert hist.count(endpoint="/near/{ue}") == FLUSH_INTERVAL

    def test_5xx_flushes_immediately(self):
        plane = make_plane()
        observe(plane)
        observe(plane, status=500)
        counter = plane.metrics.counter("ops_requests_total")
        assert counter.total() == 2  # both drained, no reader involved

    def test_readers_flush_first(self):
        plane = make_plane()
        ctx = plane.context()
        observe(plane, trace=ctx, path="/near/7")
        status = plane.slo_status()
        assert status["slos"][0]["seen"] >= 1
        # the traced record materialised its request span at the flush
        spans = plane.trace(ctx.trace_id)
        assert [s.name for s in spans] == ["GET /near/{ue}"]
        assert spans[0].attrs == {"path": "/near/7"}

    def test_histogram_buckets_and_counters_accumulate(self):
        plane = make_plane()
        observe(plane, elapsed_s=0.0003)  # 0.3 ms
        observe(plane, elapsed_s=0.004)  # 4 ms
        observe(plane, status=404, elapsed_s=0.0002)
        assert plane.flush() == 3
        hist = plane.metrics.histogram(
            "request_latency_ms", buckets=LATENCY_BUCKETS_MS
        )
        buckets = dict(hist.bucket_counts(endpoint="/near/{ue}"))
        assert buckets["0.5"] == 2  # cumulative: both sub-half-ms
        assert buckets["5.0"] == 3
        counter = plane.metrics.counter("ops_requests_total")
        assert counter.total() == 3

    def test_exemplars_point_slow_buckets_at_traces(self):
        plane = make_plane()
        ctx = plane.context()
        observe(plane, elapsed_s=0.030, trace=ctx)
        status = plane.slo_status()
        assert {
            "endpoint": "/near/{ue}",
            "le": "50.0",
            "trace_id": ctx.trace_id,
        } in status["exemplars"]


def feed(analyzer: SLOBurnRate, records: list[tuple]) -> None:
    analyzer.ingest(records)


def rec(
    endpoint: str = "/near/{ue}",
    status: int = 200,
    elapsed_s: float = 0.001,
    stamp: float = 1.0,
) -> tuple:
    return (endpoint, "GET", status, elapsed_s, None, endpoint, stamp)


class TestSLOBurnRate:
    def make(self, slo: SLOObjective | None = None) -> SLOBurnRate:
        return SLOBurnRate(
            slo
            or SLOObjective(
                name="near-p99",
                endpoint="/near/{ue}",
                threshold_ms=10.0,
                objective=0.99,
            )
        )

    def test_healthy_stream_never_alerts(self):
        analyzer = self.make()
        feed(analyzer, [rec() for _ in range(500)])
        assert analyzer.alerts == []
        assert analyzer.burn == 0.0
        assert analyzer.seen == 500

    def test_burning_stream_fires_once_per_episode(self):
        analyzer = self.make()
        bad = [rec(elapsed_s=0.05) for _ in range(BURN_MIN_EVENTS)]
        feed(analyzer, bad[:-1])
        assert analyzer.alerts == []  # too few requests to judge yet
        feed(analyzer, bad[-1:])
        assert len(analyzer.alerts) == 1
        alert = analyzer.alerts[0]
        assert alert.severity == "warning"
        assert alert.context["slo"] == "near-p99"
        assert alert.context["burn"] >= 2.0
        # still burning: no second alert until it re-arms
        feed(analyzer, [rec(elapsed_s=0.05) for _ in range(BURN_MIN_EVENTS)])
        assert len(analyzer.alerts) == 1

    def test_re_arms_after_recovery(self):
        analyzer = self.make()
        feed(analyzer, [rec(elapsed_s=0.05) for _ in range(BURN_MIN_EVENTS)])
        assert len(analyzer.alerts) == 1
        # burn decays to 0 once the bad requests slide out of the window
        feed(analyzer, [rec() for _ in range(BURN_WINDOW + 100)])
        feed(analyzer, [rec(elapsed_s=0.05) for _ in range(BURN_MIN_EVENTS)])
        assert len(analyzer.alerts) == 2

    def test_availability_alerts_are_critical(self):
        analyzer = self.make(
            slo=SLOObjective(
                name="availability",
                endpoint="*",
                kind="availability",
                objective=0.999,
            )
        )
        feed(analyzer, [rec(status=500) for _ in range(BURN_MIN_EVENTS)])
        assert analyzer.alerts[0].severity == "critical"

    def test_endpoint_filter_ignores_other_endpoints(self):
        analyzer = self.make()
        feed(analyzer, [rec(endpoint="/sync", elapsed_s=0.5)] * 50)
        assert analyzer.seen == 0
        assert analyzer.alerts == []

    def test_window_slides_bad_requests_out(self):
        analyzer = self.make()
        feed(analyzer, [rec(elapsed_s=0.05) for _ in range(5)])
        feed(analyzer, [rec() for _ in range(BURN_WINDOW - 5)])
        assert analyzer.status()["bad_in_window"] == 5  # not yet slid out
        feed(analyzer, [rec() for _ in range(5)])
        assert analyzer.status()["bad_in_window"] == 0
        assert analyzer.burn == 0.0

    def test_digest_fast_path_matches_slow_path(self):
        fast, slow = self.make(), self.make()
        records = [rec() for _ in range(50)]
        counts = {("/near/{ue}", "GET", 200): 50}
        maxes = {"/near/{ue}": 1.0}
        fast.ingest(records, (counts, maxes, None))
        slow.ingest(records, None)
        assert fast.seen == slow.seen == 50
        assert fast.burn == slow.burn == 0.0

    def test_digest_with_5xx_never_short_circuits_availability(self):
        analyzer = self.make(
            slo=SLOObjective(
                name="availability",
                endpoint="/sync",
                kind="availability",
                objective=0.999,
            )
        )
        # digest carries only the FIRST 5xx endpoint — a batch whose
        # first 5xx is elsewhere must still walk the records
        records = [rec(endpoint="/near/{ue}", status=500)] + [
            rec(endpoint="/sync", status=500) for _ in range(10)
        ]
        counts = {
            ("/near/{ue}", "GET", 500): 1,
            ("/sync", "GET", 500): 10,
        }
        analyzer.ingest(records, (counts, {}, "/near/{ue}"))
        assert analyzer.status()["bad_in_window"] == 10
        assert analyzer.burn > 0.0  # counted despite the digest

    def test_status_snapshot_shape(self):
        analyzer = self.make()
        feed(analyzer, [rec() for _ in range(5)])
        doc = analyzer.status()
        assert doc["slo"] == "near-p99"
        assert doc["seen"] == 5
        assert doc["window"] == 5
        assert doc["bad_in_window"] == 0
        assert doc["alerts"] == 0


class TestPlaneAlertsOnBus:
    def test_burn_alert_reaches_the_plane_bus(self):
        plane = make_plane()
        for _ in range(BURN_MIN_EVENTS):
            observe(plane, elapsed_s=0.050)
        plane.flush()
        # 50 ms breaks near-p99 (10 ms) but not all-p99 (50 ms)
        assert [a.context["slo"] for a in plane.alerts] == ["near-p99"]
        assert plane.slo_status()["alerts"] == [
            a.to_dict() for a in plane.alerts
        ]
        # the alerts are ops-plane-only: counted in the plane's registry
        counter = plane.metrics.counter("alerts_total")
        assert counter.value(analyzer="slo_burn_rate", severity="warning") == 1


class TestRequestSpanTiming:
    def test_request_span_starts_at_the_start_reading(self):
        """The request span starts at the reading taken on arrival, so
        the spans opened while serving it nest inside it."""
        plane = make_plane()
        clock = plane.clock
        ctx = plane.context()
        start = clock()
        clock.now += 0.001
        with plane.span("world.step", parent=ctx):
            clock.now += 0.002
        clock.now += 0.001
        plane.observe_request(
            "/world/step", "POST", 200, clock() - start, ctx, start_s=start
        )
        request, step = plane.trace(ctx.trace_id)
        assert request.name == "POST /world/step"
        assert request.start_s == start
        assert request.duration_ms == pytest.approx(4.0)
        assert step.parent_id == request.span_id
        assert request.start_s < step.start_s
        assert step.start_s + step.duration_ms / 1000 < (
            request.start_s + request.duration_ms / 1000
        )


class TestDefaultPlane:
    def test_install_and_scoped_default(self):
        assert default_plane() is None
        plane = OpsPlane()
        with default_ops(plane) as installed:
            assert installed is plane
            assert default_plane() is plane
        assert default_plane() is None

    def test_install_default_returns_previous(self):
        first, second = OpsPlane(), OpsPlane()
        assert install_default(first) is None
        try:
            assert install_default(second) is first
        finally:
            install_default(None)


class TestRenderTrace:
    def test_tree_indents_children_and_marks_failures(self):
        spans = [
            OpsSpan("t1", "s1", None, "GET /world/step", 1.0, 5.0),
            OpsSpan("t1", "s2", "s1", "world.step", 1.1, 4.0),
            OpsSpan(
                "t1", "s3", "s2", "engine.advance", 1.2, 3.0, status="error"
            ),
        ]
        out = render_trace(spans)
        lines = out.splitlines()
        assert lines[0].startswith("GET /world/step")
        assert lines[1].startswith("  world.step")
        assert lines[2].startswith("    engine.advance")
        assert "[FAILED]" in lines[2]

    def test_empty_trace(self):
        assert render_trace([]) == "(empty trace)"
