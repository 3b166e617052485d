"""Ops-plane service tests: the non-canonical surface and its isolation.

Two things are under test.  First the ops endpoints themselves —
``GET /trace/{id}``, ``GET /ops/slo``, ``GET /ops/flight`` — and the
request traces behind them, which nest ``world.step`` →
``engine.advance`` → churn spans under the request span by dynamic
scope.  Second, and load
bearing for the whole design: the conformance proof that attaching the
full ops plane (tracing, SLO analyzers, flight recorder) changes **no
response byte** on the canonical surface, including ``GET /metrics``.
"""

from __future__ import annotations

import contextlib
import http.server
import json
import threading
import urllib.request

from repro.cli import main as cli_main
from repro.core.config import PaperConfig
from repro.faults.invariants import InvariantViolation
from repro.obs import render_prometheus
from repro.obs.flight import FLIGHT_SCHEMA, FlightRecorder, load_bundle
from repro.obs.ops import OpsPlane
from repro.obs.sse import SSEBridge
from repro.service import (
    DiscoveryApp,
    RequestLog,
    ServiceClient,
    ServiceThread,
    SteadyStateWorld,
    WorldConfig,
)

SEED = 11
N = 32


def make_client(
    seed: int = SEED,
    n: int = N,
    *,
    ops: OpsPlane | None = None,
    request_log: RequestLog | None = None,
) -> ServiceClient:
    world = SteadyStateWorld(
        WorldConfig(base=PaperConfig(n_devices=n, seed=seed))
    )
    return ServiceClient(
        DiscoveryApp(world, ops=ops, request_log=request_log)
    )


def ops_client(**plane_kwargs) -> tuple[ServiceClient, OpsPlane]:
    plane_kwargs.setdefault("flight", FlightRecorder())
    plane = OpsPlane(**plane_kwargs)
    return make_client(ops=plane), plane


class TickingClock:
    """A fake ``perf_counter``: every reading is 1 ms after the last."""

    def __init__(self) -> None:
        self.readings: list[float] = []

    def __call__(self) -> float:
        now = 100.0 + 0.001 * len(self.readings)
        self.readings.append(now)
        return now


class TestOpsEndpoints:
    def test_trace_roundtrip_over_the_api(self):
        client, plane = ops_client()
        assert client.get("/health").status == 200
        trace_id = plane.trace_ids()[-1]
        resp = client.get(f"/trace/{trace_id}")
        assert resp.status == 200
        doc = resp.json()
        assert doc["trace_id"] == trace_id
        (root,) = doc["spans"]  # one nested Span.to_dict() tree
        assert root["name"] == "GET /health"
        assert root["attrs"] == {"path": "/health"}
        assert "failed" not in root
        assert "children" not in root

    def test_unknown_trace_is_404(self):
        client, _ = ops_client()
        assert client.get("/trace/t00000000").status == 404

    def test_ops_surface_is_503_without_a_plane(self):
        client = make_client()
        for path in ("/trace/t1", "/ops/slo", "/ops/flight"):
            resp = client.get(path)
            assert resp.status == 503
            assert resp.json() == {"error": "ops plane disabled"}

    def test_slo_status_document(self):
        client, _ = ops_client()
        for _ in range(5):
            client.get("/near/0?limit=4")
        doc = client.get("/ops/slo").json()
        names = [s["slo"] for s in doc["slos"]]
        assert names == ["near-p99", "all-p99", "availability"]
        # the reader flushed, so the queued requests are accounted
        assert all(s["seen"] >= 5 for s in doc["slos"] if s["endpoint"] == "*")
        assert doc["alerts"] == []
        assert doc["traces_retained"] >= 1

    def test_flight_endpoint_flushes_then_bundles(self):
        client, _ = ops_client()
        client.get("/health")
        doc = client.get("/ops/flight").json()
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["reason"] == "api"
        # flush-before-read: the /health just served is in the ring
        assert any(r["path"] == "/health" for r in doc["requests"])

    def test_flight_is_503_without_a_recorder(self):
        client, _ = ops_client(flight=None)
        resp = client.get("/ops/flight")
        assert resp.status == 503
        assert resp.json() == {"error": "no flight recorder attached"}


class TestWorldStepTracing:
    def test_step_request_traces_through_world_and_engine(self):
        client, plane = ops_client()
        assert client.post("/world/step", {"steps": 1}).status == 200
        (trace_id,) = plane.trace_ids()  # the sampled request is the root
        request = plane.trace(trace_id)
        assert request.name == "POST /world/step"
        (step,) = request.children
        assert step.name == "world.step"
        (advance,) = step.children
        assert advance.name == "engine.advance"
        churn = [c.name for c in advance.children]
        assert churn and set(churn) <= {"churn.join", "churn.fail"}
        events = client.get("/world").json()  # unsampled: no new trace
        assert events["step"] == 1 and len(plane.trace_ids()) == 1

    def test_unsampled_requests_mint_no_trace(self):
        client, plane = ops_client()
        client.get("/health")  # seq 1: sampled
        for _ in range(5):
            client.get("/health")  # seq 2..6: unsampled
        assert len(plane.trace_ids()) == 1

    def test_unsampled_step_roots_its_own_trace(self):
        client, plane = ops_client()
        client.get("/health")  # seq 1: sampled
        assert client.post("/world/step", {"steps": 2}).status == 200
        roots = [plane.trace(t) for t in plane.trace_ids()]
        assert [r.name for r in roots] == [
            "GET /health", "world.step", "world.step",
        ]
        assert all(
            [c.name for c in r.children] == ["engine.advance"]
            for r in roots[1:]
        )

    def test_request_span_encloses_world_step(self):
        """The app times requests on the plane's clock: the request span
        starts at the arrival reading, the world step it caused sits
        inside it, and the recorded latency runs from arrival to the
        last reading."""
        clock = TickingClock()
        client, plane = ops_client(clock=clock)
        first = len(clock.readings)
        assert client.post("/world/step", {"steps": 1}).status == 200
        last = clock.readings[-1]
        request = plane.trace(plane.trace_ids()[-1])
        (step,) = request.children
        assert request.start_s == clock.readings[first]

        def end(span):
            return span.start_s + span.duration_s

        assert request.start_s < step.start_s
        assert end(step) < end(request)
        count, total_s = client.app.latency["/world/step"]
        assert count == 1
        assert total_s == last - request.start_s

    def test_failed_request_span_is_flagged(self):
        client, plane = ops_client()
        client.app.world.sync_state = lambda: 1 / 0  # type: ignore[assignment]
        assert client.get("/sync").status == 500
        request = plane.trace(plane.trace_ids()[-1])
        assert request.name == "GET /sync"
        assert request.failed


class TestFlightOnFailure:
    def test_500_dumps_a_bundle_immediately(self, tmp_path):
        client, plane = ops_client(
            flight=FlightRecorder(out_dir=tmp_path)
        )
        app = client.app
        app.world.sync_state = lambda: 1 / 0  # type: ignore[assignment]
        resp = client.get("/sync")
        assert resp.status == 500
        assert resp.json() == {"error": "internal: ZeroDivisionError"}
        # the 5xx flushed the queue and the armed recorder dumped
        doc = load_bundle(tmp_path / "flight_0001.json")
        assert doc["reason"] == "5xx:/sync"
        assert any(
            r["path"] == "/sync" and r["status"] == 500
            for r in doc["requests"]
        )

    def test_invariant_violation_wins_the_dump_reason(self, tmp_path):
        client, plane = ops_client(
            flight=FlightRecorder(out_dir=tmp_path)
        )

        def explode():
            raise InvariantViolation("tree_acyclic", "cycle of length 3")

        client.app.world.sync_state = explode  # type: ignore[assignment]
        assert client.get("/sync").status == 500
        doc = load_bundle(tmp_path / "flight_0001.json")
        assert doc["reason"] == "invariant:InvariantViolation"
        assert "tree_acyclic" in doc["violations"][0]["error"]

    def test_bundle_embeds_the_bounded_request_log(self):
        log = RequestLog(max_entries=2)
        client, _ = ops_client()
        client.app.request_log = log
        client.app.ops.flight.request_log = log
        for ue in range(4):
            client.get(f"/near/{ue}?limit=2")
        assert len(log.entries) == 2
        assert log.dropped == 2
        doc = client.get("/ops/flight").json()
        jsonl = doc["request_log_jsonl"]
        # only the retained tail is embedded, queries url-encoded
        assert "/near/2?limit=2" in jsonl and "/near/0" not in jsonl


class TestBoundedRequestLog:
    def test_app_records_into_a_bounded_log(self):
        log = RequestLog(max_entries=3)
        client = make_client(request_log=log)
        for _ in range(5):
            client.get("/health")
        assert len(log.entries) == 3
        assert log.dropped == 2
        assert log.entries[-1] == ("GET", "/health", b"")


#: One scripted session exercising every canonical route and the error
#: contract (404 unknown UE, 404 no route, 409 paused, 400 bad body).
SCRIPT: tuple[tuple[str, str, bytes], ...] = (
    ("GET", "/health", b""),
    ("POST", "/world/step", b'{"steps": 2}'),
    ("GET", "/near/3?limit=4", b""),
    ("GET", "/near/9999", b""),
    ("GET", "/fragment/3?limit=8", b""),
    ("GET", "/sync", b""),
    ("GET", "/world", b""),
    ("GET", "/metrics", b""),
    ("GET", "/events?since=0", b""),
    ("GET", "/no/such/route", b""),
    ("POST", "/world/step", b'{"steps": "lots"}'),
    ("POST", "/world/pause", b""),
    ("POST", "/world/step", b""),
    ("POST", "/world/resume", b""),
    ("POST", "/world/step", b'{"steps": 1}'),
    ("GET", "/metrics", b""),
)


def run_script(client: ServiceClient) -> list[tuple[int, bytes]]:
    return [
        (r.status, r.body)
        for r in (
            client.request(method, url, body) for method, url, body in SCRIPT
        )
    ]


class TestOpsPlaneIsNonCanonical:
    """The acceptance criterion: bytes identical with the plane on/off."""

    def test_scripted_session_is_byte_identical(self):
        plain = run_script(make_client())
        client, plane = ops_client()
        instrumented = run_script(client)
        assert plain == instrumented
        # the plane really was live, not accidentally detached
        assert plane.flush() == len(SCRIPT)
        assert plane.metrics.counter("ops_requests_total").total() > 0
        assert plane.trace_ids()

    def test_request_log_replay_is_byte_identical(self):
        log = RequestLog()
        for method, url, body in SCRIPT:
            log.record(method, url, body)
        assert log.replay(make_client()) == log.replay(ops_client()[0])

    def test_metrics_stay_exporter_exact_with_ops_attached(self):
        client, _ = ops_client()
        client.get("/near/0?limit=4")
        # exporter parity: the endpoint renders before its own request
        # is counted, so snapshot the expected bytes first
        expected = render_prometheus(client.app.world.obs.metrics)
        resp = client.get("/metrics")
        assert resp.status == 200
        assert (
            resp.content_type == "text/plain; version=0.0.4; charset=utf-8"
        )
        assert resp.body == expected.encode("utf-8")
        # nothing from the sibling ops registry leaks into the canonical
        # exposition — wall-clock histograms would break determinism
        text = resp.text
        assert "request_latency_ms" not in text
        assert "ops_requests_total" not in text
        assert "service_requests_total" in text


# ----------------------------------------------------------------------
# SSE slow-consumer semantics (bridge ring + wire-level reconnect)
# ----------------------------------------------------------------------
class TestSSESlowConsumer:
    def test_overflow_sets_the_drop_ledger(self):
        bridge = SSEBridge(capacity=2)
        for seq in range(5):
            bridge.on_alert(_StubAlert(seq))
        assert bridge.dropped == 3
        assert bridge.next_id == 5
        assert bridge.oldest_id == 3

    def test_stale_cursor_resumes_from_oldest_with_monotone_ids(self):
        bridge = SSEBridge(capacity=2)
        for seq in range(5):
            bridge.on_alert(_StubAlert(seq))
        frames, cursor = bridge.frames_since(0)  # far behind the window
        assert cursor == 5
        ids = [int(f.split("\n", 1)[0].removeprefix("id: ")) for f in frames]
        assert ids == [3, 4]
        # caught-up consumer: nothing, cursor parked at next_id
        assert bridge.frames_since(cursor) == ([], 5)

    def test_reconnect_with_last_event_id_is_gapless(self):
        world = SteadyStateWorld(
            WorldConfig(base=PaperConfig(n_devices=N, seed=7))
        )
        with ServiceThread(DiscoveryApp(world)) as svc:
            step = urllib.request.Request(
                svc.url + "/world/step", data=b'{"steps": 4}', method="POST"
            )
            urllib.request.urlopen(step, timeout=10).read()

            first = self._frame_ids(svc, "/events?follow=1&max_frames=2")
            assert first == sorted(first)
            # EventSource reconnect: Last-Event-ID resumes at id + 1
            resumed = self._frame_ids(
                svc,
                "/events?follow=1&max_frames=2",
                last_event_id=first[-1],
            )
            assert resumed[0] == first[-1] + 1
            assert resumed == sorted(resumed)

    @staticmethod
    def _frame_ids(svc, path: str, last_event_id: int | None = None):
        req = urllib.request.Request(svc.url + path)
        if last_event_id is not None:
            req.add_header("Last-Event-ID", str(last_event_id))
        with urllib.request.urlopen(req, timeout=10) as resp:
            data = resp.read().decode()
        return [
            int(frame.split("\n", 1)[0].removeprefix("id: "))
            for frame in data.split("\n\n")
            if frame
        ]


class _StubAlert:
    def __init__(self, seq: int) -> None:
        self.seq = seq

    def to_dict(self) -> dict:
        return {"seq": self.seq}


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """Answers every GET with the class's canned body."""

    body = b""
    content_type = "text/html"

    def do_GET(self):  # noqa: N802 — http.server's naming
        self.send_response(200)
        self.send_header("Content-Type", self.content_type)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def stub_server(body: bytes, content_type: str = "text/html"):
    handler = type(
        "Stub", (_StubHandler,), {"body": body, "content_type": content_type}
    )
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


class TestOpsCLI:
    """``repro trace`` / ``repro flight dump`` against live and stub
    servers: renders on success, one stderr line and exit 2 on garbage."""

    def _run(self, capsys, argv):
        code = cli_main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_trace_renders_the_nested_step_trace(self, capsys):
        world = SteadyStateWorld(
            WorldConfig(base=PaperConfig(n_devices=N, seed=SEED))
        )
        plane = OpsPlane()
        with ServiceThread(DiscoveryApp(world, ops=plane)) as svc:
            step = urllib.request.Request(
                svc.url + "/world/step", data=b'{"steps": 1}', method="POST"
            )
            urllib.request.urlopen(step, timeout=10).read()
            (trace_id,) = plane.trace_ids()
            code, out, err = self._run(
                capsys, ["trace", trace_id, "--url", svc.url]
            )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == f"trace {trace_id}"
        assert lines[1].startswith("POST /world/step [path=/world/step]")
        assert lines[2].startswith("└─ world.step [step=0]")
        assert lines[3].startswith("   └─ engine.advance")

    def test_non_json_body_exits_2_with_one_line(self, capsys):
        with stub_server(b"<html><body>not the service</body></html>") as url:
            for argv in (
                ["trace", "t1", "--url", url],
                ["flight", "dump", "--url", url],
            ):
                code, out, err = self._run(capsys, argv)
                assert code == 2
                assert "not a JSON object" in err
                assert len(err.strip().splitlines()) == 1
                assert "Traceback" not in err

    def test_json_that_is_not_an_object_exits_2(self, capsys):
        with stub_server(b"[1, 2]", "application/json") as url:
            code, _, err = self._run(capsys, ["trace", "t1", "--url", url])
        assert code == 2 and "not a JSON object" in err

    def test_trace_doc_without_spans_exits_2(self, capsys):
        with stub_server(b'{"trace_id": "t1"}', "application/json") as url:
            code, _, err = self._run(capsys, ["trace", "t1", "--url", url])
        assert code == 2
        assert err.strip().endswith("not a trace document")

    def test_flight_doc_without_schema_exits_2(self, capsys, tmp_path):
        with stub_server(b'{"requests": [1]}', "application/json") as url:
            code, _, err = self._run(
                capsys, ["flight", "dump", "--url", url, "-o", str(tmp_path)]
            )
        assert code == 2
        assert err.strip().endswith("not a flight bundle")
        assert not any(tmp_path.iterdir())
