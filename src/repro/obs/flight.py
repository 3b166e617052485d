"""Flight recorder: bounded post-mortem capture for the live service.

A crashed or degraded ``repro serve`` is useless to debug from averages;
the operator needs *what just happened*.  :class:`FlightRecorder` keeps
three bounded deterministic rings — recent requests, recent telemetry
events, recent alerts — with explicit drop counters (never silent), and
dumps a self-contained post-mortem **bundle** when something goes wrong:

* an analyzer alert (SLO burn relayed by the ops plane; stall or
  collision storm on the world's bus, which the recorder subscribes to),
* a 5xx response, or
* an :class:`~repro.faults.invariants.InvariantViolation` escaping a
  world step.

Bundles are one JSON document (schema ``repro.obs.flight/1``) plus a
PR 5-style single-file HTML rendering — inline CSS, no external assets —
written under ``out_dir`` and bounded by :data:`MAX_BUNDLES`.  ``repro
flight dump`` captures one on demand from a running service's
``GET /ops/flight``.

The recorder lives on the ops plane (:mod:`repro.obs.ops`): it observes
wall-clock facts and never feeds anything back, so service responses
stay byte-identical with it on or off.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import deque
from typing import Any

FLIGHT_SCHEMA = "repro.obs.flight/1"

#: Ring size shared by the request/event/alert rings.
FLIGHT_CAPACITY = 256

#: Bundles retained on disk before the oldest is deleted.
MAX_BUNDLES = 8


class FlightRecorder:
    """Three bounded rings and the dump-on-trouble machinery."""

    def __init__(
        self,
        *,
        out_dir: str | pathlib.Path | None = None,
        clock=time.time,
    ) -> None:
        self.out_dir = pathlib.Path(out_dir) if out_dir is not None else None
        self.clock = clock
        #: raw request records in the ops-plane tuple layout
        #: ``(endpoint, method, status, elapsed_s, trace_id, path, start_s)``;
        #: rendered to dicts only at bundle time so the per-request feed
        #: stays allocation-light.
        self.requests: deque[tuple] = deque(maxlen=FLIGHT_CAPACITY)
        self.events: deque[dict[str, Any]] = deque(maxlen=FLIGHT_CAPACITY)
        self.alerts: deque[dict[str, Any]] = deque(maxlen=FLIGHT_CAPACITY)
        #: ring -> evictions; the drop ledger (bounded is never silent)
        self.dropped: dict[str, int] = {"requests": 0, "events": 0, "alerts": 0}
        self.violations: list[dict[str, Any]] = []
        self.dumps: list[str] = []  # bundle paths written, oldest first
        self._pending: str | None = None
        self._dump_seq = 0
        self.request_log: Any | None = None  # optional bounded RequestLog

    # ------------------------------------------------------------------
    # ring feeds (bus subscriber contract + the plane's request batches)
    # ------------------------------------------------------------------
    def _append(self, ring: deque, name: str, item: dict[str, Any]) -> None:
        if len(ring) == FLIGHT_CAPACITY:
            self.dropped[name] += 1
        ring.append(item)

    def on_event(self, event: Any) -> None:
        self._append(
            self.events,
            "events",
            {
                "seq": event.seq,
                "time_ms": event.time_ms,
                "topic": event.topic,
                "values": dict(event.values),
                "labels": dict(event.labels),
            },
        )

    def on_alert(self, alert: Any) -> None:
        to_dict = getattr(alert, "to_dict", None)
        doc = to_dict() if callable(to_dict) else {"alert": str(alert)}
        self._append(self.alerts, "alerts", doc)
        analyzer = doc.get("analyzer", "unknown")
        self.arm(f"alert:{analyzer}")

    def ingest_requests(self, records: list[tuple]) -> None:
        """Batched raw ring feed (ops-plane request-record tuples).

        Deliberately does **not** inspect statuses — arming on a 5xx is
        ``OpsPlane.flush``'s job, so this stays an O(1)-per-record
        ``extend`` with the drop ledger kept by arithmetic instead of a
        per-item check.
        """
        ring = self.requests
        overflow = len(ring) + len(records) - FLIGHT_CAPACITY
        if overflow > 0:
            # len(ring) <= capacity always, so overflow <= len(records)
            self.dropped["requests"] += overflow
        ring.extend(records)

    def note_invariant(self, exc: BaseException) -> None:
        """Record an invariant violation and arm a dump."""
        self.violations.append(
            {"wall_s": self.clock(), "error": f"{type(exc).__name__}: {exc}"}
        )
        self.arm(f"invariant:{type(exc).__name__}")

    def arm(self, reason: str) -> None:
        """Mark that the next :meth:`maybe_dump` should write a bundle."""
        if self._pending is None:
            self._pending = reason

    # ------------------------------------------------------------------
    # bundles
    # ------------------------------------------------------------------
    def bundle(self, reason: str = "manual") -> dict[str, Any]:
        """The self-contained post-mortem document."""
        doc: dict[str, Any] = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "captured_wall_s": self.clock(),
            "capacity": FLIGHT_CAPACITY,
            "dropped": dict(self.dropped),
            "requests": [_request_doc(rec) for rec in self.requests],
            "events": list(self.events),
            "alerts": list(self.alerts),
            "violations": list(self.violations),
        }
        if self.request_log is not None and self.request_log.entries:
            doc["request_log_jsonl"] = self.request_log.to_jsonl()
        return doc

    def dump(
        self,
        reason: str = "manual",
        out_dir: str | pathlib.Path | None = None,
    ) -> tuple[pathlib.Path, pathlib.Path]:
        """Write ``flight_NNNN.json`` + ``.html``; returns both paths."""
        directory = pathlib.Path(out_dir) if out_dir is not None else self.out_dir
        if directory is None:
            raise ValueError("flight recorder has no out_dir configured")
        directory.mkdir(parents=True, exist_ok=True)
        doc = self.bundle(reason)
        self._dump_seq += 1
        stem = f"flight_{self._dump_seq:04d}"
        json_path = directory / f"{stem}.json"
        html_path = directory / f"{stem}.html"
        json_path.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        html_path.write_text(render_flight_html(doc), encoding="utf-8")
        self.dumps.extend([str(json_path), str(html_path)])
        # bound the on-disk bundle set (a flapping alert must not fill
        # the disk any more than a ring may grow without limit)
        while len(self.dumps) > 2 * MAX_BUNDLES:
            stale = self.dumps.pop(0)
            pathlib.Path(stale).unlink(missing_ok=True)
        return json_path, html_path

    def maybe_dump(self) -> tuple[pathlib.Path, pathlib.Path] | None:
        """Dump iff armed and an ``out_dir`` is configured; disarms."""
        if self._pending is None:
            return None
        reason, self._pending = self._pending, None
        if self.out_dir is None:
            return None
        return self.dump(reason)


def _request_doc(rec: tuple) -> dict[str, Any]:
    """One ring tuple rendered to the bundle's JSON request document."""
    return {
        "endpoint": rec[0],
        "method": rec[1],
        "status": rec[2],
        "elapsed_ms": round(rec[3] * 1000.0, 3),
        "trace_id": rec[4],
        "path": rec[5],
        "stamp_s": rec[6],
    }


# ----------------------------------------------------------------------
# HTML rendering (PR 5 report idiom: one file, inline CSS, no assets)
# ----------------------------------------------------------------------
def render_flight_html(doc: dict[str, Any]) -> str:
    from repro.obs.report import _CSS, _esc, _fmt

    def table(headers: list[str], rows: list[list[Any]]) -> str:
        if not rows:
            return "<p>none recorded</p>"
        head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
        body = "".join(
            "<tr>" + "".join(f"<td>{_esc(_fmt(c))}</td>" for c in row) + "</tr>"
            for row in rows
        )
        return f"<table><tr>{head}</tr>{body}</table>"

    requests = doc.get("requests", [])
    events = doc.get("events", [])
    alerts = doc.get("alerts", [])
    violations = doc.get("violations", [])
    dropped = doc.get("dropped", {})
    sections = [
        "<h1>flight recorder bundle</h1>",
        "<p>"
        f"reason <b>{_esc(doc.get('reason', '?'))}</b> — "
        f"{len(requests)} requests, {len(events)} events, "
        f"{len(alerts)} alerts, {len(violations)} invariant violations; "
        "dropped "
        + ", ".join(f"{k}={v}" for k, v in sorted(dropped.items()))
        + "</p>",
        "<h2>alerts</h2>",
        table(
            ["time_ms", "analyzer", "severity", "message"],
            [
                [a.get("time_ms"), a.get("analyzer"), a.get("severity"),
                 a.get("message")]
                for a in alerts
            ],
        ),
        "<h2>invariant violations</h2>",
        table(
            ["wall_s", "error"],
            [[v.get("wall_s"), v.get("error")] for v in violations],
        ),
        "<h2>recent requests</h2>",
        table(
            ["method", "path", "status", "elapsed_ms", "trace"],
            [
                [r.get("method"), r.get("path"), r.get("status"),
                 r.get("elapsed_ms"), r.get("trace_id") or ""]
                for r in requests
            ],
        ),
        "<h2>recent telemetry</h2>",
        table(
            ["seq", "time_ms", "topic", "values"],
            [
                [e.get("seq"), e.get("time_ms"), e.get("topic"),
                 json.dumps(e.get("values", {}), sort_keys=True)]
                for e in events
            ],
        ),
    ]
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>flight bundle</title><style>{_CSS}</style></head>"
        "<body>" + "".join(sections) + "</body></html>\n"
    )


def load_bundle(path: str | pathlib.Path) -> dict[str, Any]:
    """Read one bundle JSON back, validating the schema tag."""
    doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if doc.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(
            f"{path}: not a flight bundle (schema={doc.get('schema')!r})"
        )
    return doc
