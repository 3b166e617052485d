"""HTML run reports: self-contained rendering from run artifacts."""

import json

import pytest

from repro.obs.report import (
    load_metrics_document,
    render_run_report,
    write_run_report,
)
from repro.sim.trace import TraceRecorder


def _doc(**extra):
    doc = {
        "schema": "repro.obs/1",
        "command": "simulate",
        "n": 32,
        "seed": 7,
        "metrics": {
            "messages_total": {
                "type": "counter",
                "samples": [
                    {"labels": {"algorithm": "st", "kind": "discovery"},
                     "value": 900},
                    {"labels": {"algorithm": "st", "kind": "handshake"},
                     "value": 100},
                ],
            }
        },
        "probes": [
            {"probe": "sync", "time_ms": 1000.0, "spread_ms": 8.0},
            {"probe": "sync", "time_ms": 2000.0, "spread_ms": 2.0},
            {"probe": "fragments", "time_ms": 1500.0, "count": 16},
            {"probe": "fragments", "time_ms": 2500.0, "count": 1},
        ],
    }
    doc.update(extra)
    return doc


class TestRender:
    def test_self_contained_html(self):
        html = render_run_report(_doc())
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html and "<svg" in html
        # no external assets of any kind
        assert "http://" not in html and "https://" not in html
        assert "src=" not in html and "link rel" not in html

    def test_sections_present(self):
        html = render_run_report(_doc(), title="my run")
        assert "<h1>my run</h1>" in html
        assert "Sync-error curve" in html
        assert "Fragment-count timeline" in html
        assert "Message bills" in html
        assert "discovery" in html and "handshake" in html
        assert "90.0%" in html  # discovery share of the bill

    def test_alert_log_rendered(self):
        doc = _doc(alerts=[
            {"time_ms": 1234.0, "analyzer": "stall", "severity": "critical",
             "message": "no progress on sync/spread_ms for 12 samples"},
            {"time_ms": 2000.0, "analyzer": "collision_storm",
             "severity": "warning", "message": "RACH collision storm"},
        ])
        html = render_run_report(doc)
        assert "alert-critical" in html and "alert-warning" in html
        assert "no progress on sync/spread_ms" in html

    def test_no_alerts_is_explicit(self):
        assert "no analyzer alerts fired" in render_run_report(_doc())

    def test_telemetry_accounting_rendered(self):
        doc = _doc(telemetry={
            "capacity": 4096, "retained": 10,
            "published": {"sync": 120, "rach": 40},
            "dropped": {"sync/evicted": 3},
            "alerts": 0,
        })
        html = render_run_report(doc)
        assert "Telemetry bus" in html
        assert "sync/evicted" in html

    def test_hostile_values_escaped(self):
        doc = _doc(alerts=[{
            "time_ms": 1.0, "analyzer": "<script>alert(1)</script>",
            "severity": "warning", "message": "<img src=x>",
        }])
        html = render_run_report(doc)
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html

    def test_trace_section_counts_and_lamport_note(self):
        tr = TraceRecorder()
        tr.emit(1.0, "ps_tx", node=0, lc=1)
        tr.emit(2.0, "ps_tx", node=0, lc=2)
        tr.emit(3.0, "merge", u=0, v=1, lc=3)
        html = render_run_report(_doc(), trace_records=tr.records())
        assert "<h2>Trace</h2>" in html
        assert "ps_tx" in html and "merge" in html
        assert "Lamport clocks up to" in html

    def test_empty_series_degrade_gracefully(self):
        html = render_run_report({"metrics": {}})
        assert "no samples recorded" in html


class TestHotPathsSection:
    def test_spans_render_hot_path_table(self):
        doc = _doc(
            spans=[
                {
                    "name": "st_run",
                    "duration_ms": 10.0,
                    "children": [
                        {"name": "discovery", "duration_ms": 7.0,
                         "children": []},
                    ],
                },
            ]
        )
        html = render_run_report(doc)
        assert "Hot paths" in html
        assert "st_run &gt; discovery" in html
        assert "--folded" in html  # points at the flame-graph export

    def test_no_spans_no_section(self):
        assert "Hot paths" not in render_run_report(_doc())


class TestTrendsSection:
    def _series(self):
        from repro.obs.history import HistoryPoint

        return {
            "scale": [
                HistoryPoint("scale", 0, "baseline", 1.0),
                HistoryPoint("scale", 1, "now", 1.3),
            ]
        }

    def test_history_series_renders_trend_table(self):
        html = render_run_report(_doc(), history_series=self._series())
        assert "Benchmark trends" in html
        assert "<svg" in html
        assert "+30.0%" in html

    def test_stays_self_contained_with_trends(self):
        html = render_run_report(_doc(), history_series=self._series())
        assert "http://" not in html and "https://" not in html

    def test_no_series_no_section(self):
        assert "Benchmark trends" not in render_run_report(_doc())


class TestWriteAndLoad:
    def test_write_run_report_creates_parents(self, tmp_path):
        out = tmp_path / "deep" / "report.html"
        path = write_run_report(_doc(), out)
        assert path == out and out.exists()
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_load_metrics_document_round_trip(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(_doc()))
        assert load_metrics_document(p)["n"] == 32

    def test_load_rejects_non_metrics_json(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="metrics"):
            load_metrics_document(p)
