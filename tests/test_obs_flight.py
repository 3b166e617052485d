"""Flight recorder tests: bounded rings, arming, bundles on disk.

The recorder is the ops plane's post-mortem capture: three bounded
rings with an explicit drop ledger, armed by alerts / 5xx / invariant
violations, dumping self-contained JSON + HTML bundles.  Everything
here drives it directly with an injected clock; the service-level wiring
(5xx responses arming dumps through ``DiscoveryApp``) lives in
``tests/test_service_ops.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.faults.invariants import InvariantViolation
from repro.obs.analyzers import Alert
from repro.obs.flight import (
    FLIGHT_CAPACITY,
    FLIGHT_SCHEMA,
    MAX_BUNDLES,
    FlightRecorder,
    load_bundle,
    render_flight_html,
)
from repro.obs.ops import BURN_MIN_EVENTS, OpsPlane
from repro.obs.stream import TelemetryEvent
from repro.service.client import RequestLog


class FakeClock:
    def __init__(self) -> None:
        self.now = 50.0

    def __call__(self) -> float:
        return self.now


def make_recorder(**kwargs) -> FlightRecorder:
    kwargs.setdefault("clock", FakeClock())
    return FlightRecorder(**kwargs)


def record(status: int = 200, ue: int = 1) -> tuple:
    """One request record in the ops-plane tuple layout."""
    return ("/near/{ue}", "GET", status, 0.0015, None, f"/near/{ue}", 1.0)


def note(rec: FlightRecorder, status: int = 200, ue: int = 1) -> None:
    rec.ingest_requests([record(status, ue)])


class TestRings:
    def test_request_ring_is_bounded_with_drop_ledger(self):
        rec = make_recorder()
        for i in range(FLIGHT_CAPACITY + 2):
            note(rec, ue=i)
        assert len(rec.requests) == FLIGHT_CAPACITY
        assert rec.dropped["requests"] == 2
        # oldest two fell out: the ring starts at ue 2
        assert rec.requests[0][5] == "/near/2"
        assert rec.requests[-1][5] == f"/near/{FLIGHT_CAPACITY + 1}"

    def test_ingest_requests_overflow_arithmetic(self):
        rec = make_recorder()
        batch = [record(ue=i) for i in range(FLIGHT_CAPACITY - 1)]
        rec.ingest_requests(batch)
        assert rec.dropped["requests"] == 0
        rec.ingest_requests(batch[:3])  # one slot left, three records
        assert rec.dropped["requests"] == 2
        assert len(rec.requests) == FLIGHT_CAPACITY

    def test_event_and_alert_rings_feed_from_bus_shapes(self):
        rec = make_recorder()
        for seq in range(FLIGHT_CAPACITY + 1):
            rec.on_event(
                TelemetryEvent(
                    seq=seq, time_ms=float(seq), topic="round",
                    values={"round": seq}, labels={},
                )
            )
        assert len(rec.events) == FLIGHT_CAPACITY
        assert rec.dropped["events"] == 1
        assert rec.events[0]["seq"] == 1


class TestArming:
    def test_5xx_arms_a_dump(self, tmp_path):
        rec = make_recorder(out_dir=tmp_path)
        plane = OpsPlane(flight=rec)
        plane.observe_request("/near/{ue}", "GET", 200, 0.001, start_s=1.0)
        plane.flush()
        assert rec.dumps == []  # healthy: never armed
        plane.observe_request("/near/{ue}", "GET", 500, 0.001, start_s=2.0)
        doc = load_bundle(tmp_path / "flight_0001.json")
        assert doc["reason"] == "5xx:/near/{ue}"

    def test_alert_arms_and_records(self, tmp_path):
        rec = make_recorder(out_dir=tmp_path)
        rec.on_alert(
            Alert(
                time_ms=1.0, analyzer="slo_burn_rate",
                severity="warning", message="burning",
            )
        )
        assert rec.alerts[0]["analyzer"] == "slo_burn_rate"
        paths = rec.maybe_dump()
        assert load_bundle(paths[0])["reason"] == "alert:slo_burn_rate"

    def test_invariant_arms_with_type_name(self, tmp_path):
        rec = make_recorder(out_dir=tmp_path)
        rec.note_invariant(InvariantViolation("link_symmetry", "broken"))
        assert rec.violations[0]["error"].startswith("InvariantViolation:")
        paths = rec.maybe_dump()
        assert (
            load_bundle(paths[0])["reason"] == "invariant:InvariantViolation"
        )

    def test_maybe_dump_disarms_and_first_reason_wins(self, tmp_path):
        rec = make_recorder(out_dir=tmp_path)
        rec.arm("first")
        rec.arm("second")  # already pending: ignored
        assert load_bundle(rec.maybe_dump()[0])["reason"] == "first"
        assert rec.maybe_dump() is None  # disarmed

    def test_armed_without_out_dir_is_a_silent_no_op(self):
        rec = make_recorder()
        rec.arm("orphan")
        assert rec.maybe_dump() is None
        # the arming was still consumed
        assert rec.maybe_dump() is None


class TestBundles:
    def test_bundle_schema_and_request_doc(self):
        clock = FakeClock()
        rec = FlightRecorder(clock=clock)
        rec.ingest_requests(
            [
                ("/near/{ue}", "GET", 200, 0.0042, "tdead", "/near/9", 7.0),
                ("/sync", "GET", 200, 0.0008, None, "/sync", 8.0),
            ]
        )
        doc = rec.bundle("manual")
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["captured_wall_s"] == clock.now
        first, second = doc["requests"]
        # the sampled request carries its trace id; raw seconds render
        # back to milliseconds
        assert first["trace_id"] == "tdead"
        assert first["elapsed_ms"] == 4.2
        assert first["path"] == "/near/9"
        assert first["stamp_s"] == 7.0
        assert second["trace_id"] is None  # an unsampled request
        assert second["elapsed_ms"] == 0.8

    def test_bundle_embeds_bounded_request_log(self):
        rec = make_recorder()
        log = RequestLog(max_entries=8)
        log.record("GET", "/near/1")
        rec.request_log = log
        jsonl = rec.bundle()["request_log_jsonl"]
        assert "/near/1" in jsonl
        # an empty log is omitted, not embedded as an empty string
        rec.request_log = RequestLog()
        assert "request_log_jsonl" not in rec.bundle()

    def test_dump_writes_json_and_html_pair(self, tmp_path):
        rec = make_recorder(out_dir=tmp_path)
        note(rec)
        json_path, html_path = rec.dump("manual")
        assert json_path.name == "flight_0001.json"
        assert html_path.name == "flight_0001.html"
        doc = load_bundle(json_path)
        assert doc["reason"] == "manual"
        html = html_path.read_text(encoding="utf-8")
        assert "flight recorder bundle" in html
        assert "/near/1" in html

    def test_dump_set_is_bounded_on_disk(self, tmp_path):
        rec = make_recorder(out_dir=tmp_path)
        for _ in range(MAX_BUNDLES + 3):
            rec.dump("manual")
        files = sorted(p.name for p in tmp_path.iterdir())
        # MAX_BUNDLES x (json + html); the oldest three pairs were unlinked
        assert files == sorted(
            f"flight_{i:04d}.{ext}"
            for i in range(4, MAX_BUNDLES + 4)
            for ext in ("json", "html")
        )

    def test_dump_without_out_dir_raises(self):
        with pytest.raises(ValueError, match="out_dir"):
            make_recorder().dump()

    def test_load_bundle_rejects_foreign_json(self, tmp_path):
        alien = tmp_path / "alien.json"
        alien.write_text(json.dumps({"schema": "other/1"}), encoding="utf-8")
        with pytest.raises(ValueError, match="not a flight bundle"):
            load_bundle(alien)

    def test_render_html_sections_survive_empty_rings(self):
        html = render_flight_html(make_recorder().bundle())
        for section in ("alerts", "recent requests", "recent telemetry",
                        "invariant violations"):
            assert section in html
        assert "none recorded" in html


class TestPlaneIntegration:
    def test_flush_feeds_rings_and_5xx_dumps(self, tmp_path):
        flight = FlightRecorder(out_dir=tmp_path)
        plane = OpsPlane(flight=flight)
        plane.observe_request("/near/{ue}", "GET", 200, 0.001, start_s=1.0)
        assert len(flight.requests) == 0  # still queued on the plane
        plane.observe_request(  # a 5xx flushes now
            "/sync", "GET", 500, 0.002, start_s=2.0
        )
        assert [r[0] for r in flight.requests] == ["/near/{ue}", "/sync"]
        dumped = sorted(p.name for p in tmp_path.iterdir())
        assert dumped == ["flight_0001.html", "flight_0001.json"]
        doc = load_bundle(tmp_path / "flight_0001.json")
        assert doc["reason"] == "5xx:/sync"

    def test_burn_alert_reaches_recorder_and_dumps(self, tmp_path):
        flight = FlightRecorder(out_dir=tmp_path)
        plane = OpsPlane(flight=flight)
        for i in range(BURN_MIN_EVENTS):
            plane.observe_request(
                "/near/{ue}", "GET", 200, 0.050, start_s=float(i)
            )
        plane.flush()
        assert any(
            a.get("analyzer") == "slo_burn_rate" for a in flight.alerts
        )
        # the alert armed the recorder and the same flush dumped it
        doc = load_bundle(tmp_path / "flight_0001.json")
        assert doc["reason"] == "alert:slo_burn_rate"
