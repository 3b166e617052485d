"""Ops-plane unit tests: scope-nested tracing, SLO burn rates, batched
accounting.

The ops plane (:mod:`repro.obs.ops`) is the explicitly non-canonical
sibling of the deterministic telemetry stack — it owns its own metrics
registry and alert list, observes wall-clock facts, and must never feed
anything back.  These tests drive it directly with an injected clock so
latencies (and therefore SLO verdicts) are exact.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.obs import Observability, activate, active_span
from repro.obs.ops import (
    BURN_MIN_EVENTS,
    BURN_WINDOW,
    FLUSH_INTERVAL,
    LATENCY_BUCKETS_MS,
    TRACE_CAPACITY,
    TRACE_SAMPLE,
    OpsPlane,
    SLOBurnRate,
    SLOObjective,
    collect_spans,
    default_plane,
    default_slos,
    default_ops,
    install_default,
    open_trace_id,
)
from repro.obs.spans import _NULL_SPAN, Span, SpanRecorder
from repro.shard import CityConfig, run_city


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def make_plane(**kwargs) -> OpsPlane:
    kwargs.setdefault("clock", FakeClock())
    return OpsPlane(**kwargs)


def last_trace(plane: OpsPlane) -> Span:
    """Root span of the most recently finished trace."""
    return plane.trace(plane.trace_ids()[-1])


def names(span: Span) -> list[str]:
    return [c.name for c in span.children]


def observe(plane: OpsPlane, status: int = 200, elapsed_s: float = 0.001,
            **kwargs) -> None:
    """One ``/near/{ue}`` request that started at the plane's clock."""
    plane.observe_request(
        "/near/{ue}", "GET", status, elapsed_s, start_s=plane.clock(),
        **kwargs,
    )


class TestTraceContext:
    """The trace context is the dynamic scope of the open root span."""

    def test_child_links_parent(self):
        plane = make_plane()
        assert open_trace_id() is None
        with plane.span("root"):
            trace_id = open_trace_id()
            with plane.span("child"), active_span("layer"):
                assert open_trace_id() == trace_id  # children mint nothing
        assert open_trace_id() is None
        assert plane.trace_ids() == [trace_id]
        root = plane.trace(trace_id)
        assert names(root) == ["child"]
        assert names(root.children[0]) == ["layer"]

    def test_to_dict_roundtrip_via_span(self):
        plane = make_plane()
        with plane.span("GET /near/{ue}", path="/near/3"):
            plane.clock.now += 0.0025
            with plane.span("world.step"):
                pass
        doc = last_trace(plane).to_dict()
        assert doc["attrs"] == {"path": "/near/3"}
        assert doc["duration_ms"] == pytest.approx(2.5)
        assert Span.from_dict(doc).to_dict() == doc


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
        with plane.span("world.step", round=3) as span:
            plane.clock.now += 0.002
        root = last_trace(plane)
        assert root is span
        assert root.name == "world.step"
        assert root.attrs == {"round": 3}
        assert root.duration_ms == pytest.approx(2.0)
        assert not root.failed
        counter = plane.metrics.counter("ops_trace_spans_total")
        assert counter.value(name="world.step") == 1

    def test_span_marks_error_on_exception(self):
        plane = make_plane()
        with pytest.raises(RuntimeError):
            with plane.span("boom"):
                raise RuntimeError("x")
        assert last_trace(plane).failed
        assert open_trace_id() is None  # the failed root still closed

    def test_child_spans_share_trace_and_parent(self):
        plane = make_plane()
        with plane.span("parent"):
            with plane.span("child"):
                plane.clock.now += 0.001
        assert len(plane.trace_ids()) == 1
        root = last_trace(plane)
        assert root.name == "parent"
        assert names(root) == ["child"]
        assert root.children[0].duration_ms == pytest.approx(1.0)

    def test_whole_trace_fifo_eviction_is_counted(self):
        plane = make_plane()
        ids = []
        for i in range(TRACE_CAPACITY + 1):
            with plane.span(f"op{i}"):
                ids.append(open_trace_id())
        assert plane.trace(ids[0]) is None  # oldest whole trace evicted
        assert plane.trace_ids() == ids[1:]
        assert plane.traces_evicted == 1
        assert (
            plane.metrics.counter("ops_traces_evicted_total").total() == 1
        )

    def test_unread_closed_traces_stay_bounded(self):
        """Closed traces join the store in batches; with no reader (an
        auto-stepping world) the queue still drains every batch."""
        plane = make_plane()
        for _ in range(FLUSH_INTERVAL + 1):
            with plane.span("world.step"):
                pass
        assert len(plane._finished) == 1
        assert len(plane._traces) == min(FLUSH_INTERVAL, TRACE_CAPACITY)
        assert len(plane.trace_ids()) == min(FLUSH_INTERVAL + 1, TRACE_CAPACITY)

    def test_ingest_adopts_out_of_process_span_docs(self):
        """A worker's recorder takes its ops spans; the parent grafts the
        returned documents under its own span."""
        plane = make_plane()
        worker = SpanRecorder()
        with plane.span("shard.run_city") as root:
            with collect_spans(worker), worker.span("shard[0]"):
                with plane.span("run.st"), active_span("mwoe_scan"):
                    pass
            assert root.children == []  # nothing leaked into the parent
            root.children.extend(Span.from_dict(d) for d in worker.to_dicts())
        (shard,) = last_trace(plane).children
        assert shard.name == "shard[0]"
        assert names(shard) == ["run.st"]
        assert names(shard.children[0]) == ["mwoe_scan"]

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
        observe(plane, trace_id="t1", path="/near/7")
        status = plane.slo_status()
        assert status["slos"][0]["seen"] >= 1
        # the traced record reached the exemplars at the flush
        assert [e["trace_id"] for e in status["exemplars"]] == ["t1"]

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
        observe(plane, elapsed_s=0.030, trace_id="t00000007")
        status = plane.slo_status()
        assert {
            "endpoint": "/near/{ue}",
            "le": "50.0",
            "trace_id": "t00000007",
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
        """A root span starts at the plane clock's reading when it opens,
        so the spans opened while serving it nest inside it in time."""
        plane = make_plane()
        clock = plane.clock
        start = clock()
        with plane.span("POST /world/step") as request:
            clock.now += 0.001
            with plane.span("world.step") as step:
                clock.now += 0.002
            clock.now += 0.001
        assert last_trace(plane) is request
        assert request.start_s == start
        assert request.duration_ms == pytest.approx(4.0)
        assert names(request) == ["world.step"]
        assert request.start_s < step.start_s
        assert step.start_s + step.duration_s < (
            request.start_s + request.duration_s
        )


class TestScopeNesting:
    def test_active_span_without_bundle_or_trace_is_the_shared_noop(self):
        assert open_trace_id() is None
        assert active_span("build") is _NULL_SPAN

    def test_active_bundle_takes_layer_spans_first(self):
        plane = make_plane()
        obs = Observability()
        with plane.span("world.step"), activate(obs):
            with active_span("build"):
                pass
        assert last_trace(plane).children == []
        assert [s.name for s in obs.spans.roots] == ["build"]

    def test_threads_nest_their_own_traces(self):
        """The open-trace stack is per context: two threads interleaving
        spans on one plane each get a trace of their own spans."""
        plane = OpsPlane()
        barrier = threading.Barrier(2, timeout=10.0)

        def serve(name: str) -> None:
            with plane.span(name):
                barrier.wait()  # both roots open at once
                with active_span(f"{name}.child"):
                    barrier.wait()

        thread = threading.Thread(target=serve, args=("a",))
        thread.start()
        serve("b")
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        roots = [plane.trace(t) for t in plane.trace_ids()]
        assert sorted((r.name, names(r)) for r in roots) == [
            ("a", ["a.child"]), ("b", ["b.child"]),
        ]

    def test_network_build_nests_under_an_open_ops_span(self):
        plane = make_plane()
        with plane.span("world.step"):
            D2DNetwork(PaperConfig(n_devices=24, area_side_m=50.0, seed=2))
        (build,) = last_trace(plane).children
        assert build.name == "build"
        assert names(build) == [
            "build.links", "build.csr", "build.connectivity",
        ]

    def test_inline_run_city_grafts_per_shard_spans(self):
        city = CityConfig(base=PaperConfig(n_devices=64, seed=4), rows=2,
                          cols=2)
        with default_ops(make_plane()) as plane:
            run_city(city)
        (trace_id,) = plane.trace_ids()
        root = plane.trace(trace_id)
        assert root.name == "shard.run_city"
        assert root.attrs == {"tiles": 4, "workers": 1}
        assert names(root) == [f"shard[{s}]" for s in range(4)] + [
            "halo.links"
        ] * 4
        for shard in root.children[:4]:
            assert names(shard) == ["build", "run.st"]
            run_st = shard.children[1]
            assert {"mwoe_scan", "st_run"} == set(names(run_st))
            (st_run,) = [c for c in run_st.children if c.name == "st_run"]
            assert names(st_run) == ["discovery", "construction", "trim"]


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
    """``repro trace`` renders fetched span documents with the tree
    renderer ``repro profile`` uses."""

    def test_tree_indents_children_and_marks_failures(self):
        doc = {
            "name": "POST /world/step",
            "duration_ms": 5.0,
            "children": [
                {
                    "name": "world.step",
                    "duration_ms": 4.0,
                    "children": [
                        {
                            "name": "engine.advance",
                            "duration_ms": 3.0,
                            "failed": True,
                        }
                    ],
                }
            ],
        }
        rec = SpanRecorder()
        rec.roots = [Span.from_dict(doc)]
        lines = rec.render_tree().splitlines()
        assert lines[0].startswith("POST /world/step")
        assert lines[1].startswith("└─ world.step")
        assert lines[2].startswith("   └─ engine.advance")
        assert lines[2].endswith("  !")

    def test_empty_trace(self):
        assert SpanRecorder().render_tree() == "(no spans recorded)"
