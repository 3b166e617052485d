"""The discovery service's request handler, transport-free.

:class:`DiscoveryApp` maps requests to responses with no socket in
sight — the same object sits behind the asyncio HTTP server
(:mod:`repro.service.http`), the in-process test client
(:mod:`repro.service.client`), and the conformance scripted sessions.
That split is what makes the service testable to this repo's standard:
everything observable over the wire is produced here, deterministically.

Response bodies are canonical JSON — sorted keys, fixed separators,
trailing newline — so byte-identical comparison is meaningful.  Request
latency is deliberately kept *out* of the Prometheus registry (it would
poison ``GET /metrics`` byte-determinism); wall-clock aggregates live
on :attr:`DiscoveryApp.latency` for the load harness to read directly,
and the full story — per-endpoint histograms, SLO burn, traces — lives
on the non-canonical ops plane (:mod:`repro.obs.ops`) when one is
attached.  The ops plane observes and never feeds back: every response
byte is identical with it on or off (``tests/test_service_ops.py``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import urlencode

from repro.faults.invariants import InvariantViolation
from repro.obs import render_prometheus
from repro.obs.ops import OpsPlane, TraceContext
from repro.service.world import SteadyStateWorld, WorldPausedError

#: Hard cap on one ``POST /world/step`` batch; a runaway client must not
#: wedge the event loop behind a single request.
MAX_STEPS_PER_REQUEST = 1000


@dataclass(frozen=True)
class Request:
    """One parsed request, transport-independent."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


@dataclass(frozen=True)
class Response:
    """One response: status, body bytes, content type, extra headers."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = ()

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")

    def json(self) -> Any:
        return json.loads(self.body)


def canonical_json(payload: Any) -> bytes:
    """Serialise to the service's canonical byte representation."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _json_response(
    status: int, payload: Any, headers: tuple[tuple[str, str], ...] = ()
) -> Response:
    return Response(status, canonical_json(payload), headers=headers)


def _error(status: int, message: str) -> Response:
    return _json_response(status, {"error": message})


class DiscoveryApp:
    """Route requests against one :class:`SteadyStateWorld`.

    Routes
    ------
    - ``GET /health`` — liveness + simulated clock
    - ``GET /world`` — population / step / pause state
    - ``GET /near/{ue}?limit=k`` — active neighbours, strongest first
    - ``GET /fragment/{ue}?limit=k`` — live fragment membership
    - ``GET /sync`` — sync summary from the live tree
    - ``GET /metrics`` — Prometheus exposition of the world registry
    - ``GET /events?since=c&limit=k`` — retained SSE frames from cursor
    - ``POST /world/step`` (body ``{"steps": k}``), ``/world/pause``,
      ``/world/resume``
    - ``GET /trace/{id}``, ``GET /ops/slo``, ``GET /ops/flight`` — ops
      plane only (503 without one); never part of the canonical surface

    Unknown or inactive UEs are 404 (no radio presence), stepping a
    paused world is 409, malformed input is 400, an exception escaping a
    handler is a 500 with the exception type name (and the app keeps
    serving).

    Parameters
    ----------
    ops:
        Optional :class:`~repro.obs.ops.OpsPlane`.  Defaults to the
        world bundle's plane (``world.obs.ops``); passing one installs
        it there so world-step and engine spans land on the same plane.
        ``None`` disables all wall-clock instrumentation beyond the
        legacy :attr:`latency` dict.
    request_log:
        Optional :class:`~repro.service.client.RequestLog` every handled
        request is recorded into (bound it!).  Shared with the ops
        plane's flight recorder so post-mortem bundles embed a
        replayable log.
    """

    def __init__(
        self,
        world: SteadyStateWorld,
        *,
        ops: OpsPlane | None = None,
        request_log: Any | None = None,
    ) -> None:
        self.world = world
        if ops is None:
            ops = world.obs.ops
        else:
            world.obs.ops = ops
        self.ops = ops
        self.request_log = request_log
        if ops is not None and ops.flight is not None:
            if request_log is not None:
                ops.flight.request_log = request_log
            # pure observer on the deterministic bus: world telemetry
            # fills the events ring and world alerts arm dumps, without
            # feeding anything back into canonical state
            if ops.flight not in world.obs.bus._subscribers:
                world.obs.bus.subscribe(ops.flight)
        #: endpoint -> [request count, total wall seconds]; wall-clock
        #: stays out of the metrics registry on purpose (determinism)
        self.latency: dict[str, list[float]] = {}
        self._current_trace: TraceContext | None = None

    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        start = time.perf_counter()
        ops = self.ops
        ctx: TraceContext | None = None
        if ops is None:
            endpoint, response = self._route_guarded(request)
        else:
            # inlined ops.sample_request() — this path runs per request
            # and is governed by the bench_service ops_overhead budget
            seq = ops.request_seq = ops.request_seq + 1
            sample = ops.trace_sample
            if sample == 1 or seq % sample == 1:
                # mint the context only; the span itself is queued after
                # the route (below) and materialised at the next flush
                ctx = ops._new_context(None)
                self._current_trace = ctx
                try:
                    endpoint, response = self._route_guarded(request)
                finally:
                    self._current_trace = None
            else:
                endpoint, response = self._route_guarded(request)
        elapsed = time.perf_counter() - start
        bucket = self.latency.setdefault(endpoint, [0, 0.0])
        bucket[0] += 1
        bucket[1] += elapsed
        self.world.obs.metrics.counter(
            "service_requests_total",
            help="requests served, by endpoint/method/status",
            unit="requests",
        ).inc(
            1,
            endpoint=endpoint,
            method=request.method,
            status=str(response.status),
        )
        if self.request_log is not None:
            url = request.path
            if request.query:
                url += "?" + urlencode(sorted(request.query.items()))
            self.request_log.record(request.method, url, request.body)
        if ops is not None:
            # inlined ops.observe_request(): queue-and-batch — the
            # plane drains this (and feeds the flight recorder) every
            # flush_interval records or immediately on a 5xx
            status = response.status
            raw = ops._raw
            # raw seconds, the readings already taken, and the context
            # object itself — no float arithmetic, no attribute chasing;
            # flush() converts units and materialises the request span
            # for sampled records (ctx is not None)
            raw.append(
                (
                    endpoint,
                    request.method,
                    status,
                    elapsed,
                    ctx,
                    request.path,
                    start,
                )
            )
            if status >= 500 or len(raw) >= ops.flush_interval:
                ops.flush()
        return response

    def _route_guarded(self, request: Request) -> tuple[str, Response]:
        """Route with a 500 backstop byte-identical to the wire layer's."""
        try:
            return self._route(request)
        except Exception as exc:  # noqa: BLE001 — 500, keep serving
            if isinstance(exc, InvariantViolation) and self.ops is not None:
                flight = self.ops.flight
                if flight is not None:
                    flight.note_invariant(exc)
            return request.path, _error(
                500, f"internal: {type(exc).__name__}"
            )

    # ------------------------------------------------------------------
    def _route(self, request: Request) -> tuple[str, Response]:
        parts = [p for p in request.path.split("/") if p]
        method = request.method.upper()
        if not parts:
            return "/", _error(404, "no route for /")
        head = parts[0]
        if head == "health" and len(parts) == 1:
            return "/health", self._require_get(method) or self._health()
        if head == "world" and len(parts) == 1:
            return "/world", self._require_get(method) or self._world()
        if head == "sync" and len(parts) == 1:
            return "/sync", self._require_get(method) or self._sync()
        if head == "metrics" and len(parts) == 1:
            return "/metrics", self._require_get(method) or self._metrics()
        if head == "events" and len(parts) == 1:
            return (
                "/events",
                self._require_get(method) or self._events(request.query),
            )
        if head == "near" and len(parts) == 2:
            return (
                "/near/{ue}",
                self._require_get(method)
                or self._near(parts[1], request.query),
            )
        if head == "fragment" and len(parts) == 2:
            return (
                "/fragment/{ue}",
                self._require_get(method)
                or self._fragment(parts[1], request.query),
            )
        if head == "trace" and len(parts) == 2:
            return (
                "/trace/{id}",
                self._require_get(method) or self._trace(parts[1]),
            )
        if head == "ops" and len(parts) == 2 and parts[1] in ("slo", "flight"):
            return (
                f"/ops/{parts[1]}",
                self._require_get(method) or self._ops(parts[1]),
            )
        if head == "world" and len(parts) == 2:
            action = parts[1]
            if action in ("step", "pause", "resume"):
                if method != "POST":
                    return f"/world/{action}", _error(405, "POST required")
                return f"/world/{action}", self._world_action(action, request)
        return request.path, _error(404, f"no route for {request.path}")

    @staticmethod
    def _require_get(method: str) -> Response | None:
        if method != "GET":
            return _error(405, "GET required")
        return None

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _health(self) -> Response:
        w = self.world
        return _json_response(
            200,
            {
                "status": "ok",
                "time_ms": w.now_ms,
                "population": w.population,
                "step": w.step_index,
            },
        )

    def _world(self) -> Response:
        w = self.world
        cfg = w.config
        return _json_response(
            200,
            {
                "universe": w.network.n,
                "population": w.population,
                "bounds": [cfg.min_population, cfg.resolved_max_population],
                "arrival_rate": cfg.arrival_rate,
                "departure_rate": cfg.departure_rate,
                "step_ms": cfg.step_ms,
                "step": w.step_index,
                "time_ms": w.now_ms,
                "paused": w.paused,
                "seed": cfg.base.seed,
                "tree_version": w.tree_version,
            },
        )

    def _sync(self) -> Response:
        return _json_response(200, self.world.sync_state())

    def _metrics(self) -> Response:
        # exact Prometheus text exposition: exporter bytes, versioned
        # content type with explicit charset.  The ops registry is a
        # sibling and is deliberately NOT rendered here — wall-clock
        # histograms would break byte-determinism of this endpoint.
        body = render_prometheus(self.world.obs.metrics).encode("utf-8")
        return Response(
            200, body, content_type="text/plain; version=0.0.4; charset=utf-8"
        )

    def _trace(self, trace_id: str) -> Response:
        if self.ops is None:
            return _error(503, "ops plane disabled")
        spans = self.ops.trace(trace_id)
        if spans is None:
            return _error(404, f"unknown trace {trace_id}")
        return _json_response(
            200,
            {
                "trace_id": trace_id,
                "spans": [span.to_dict() for span in spans],
            },
        )

    def _ops(self, which: str) -> Response:
        if self.ops is None:
            return _error(503, "ops plane disabled")
        if which == "slo":
            return _json_response(200, self.ops.slo_status())
        flight = self.ops.flight
        if flight is None:
            return _error(503, "no flight recorder attached")
        self.ops.flush()  # queued requests must reach the rings first
        return _json_response(200, flight.bundle("api"))

    def _events(self, query: dict[str, str]) -> Response:
        since = self._int_param(query, "since", 0)
        limit = self._int_param(query, "limit", None)
        if isinstance(since, Response):
            return since
        if isinstance(limit, Response):
            return limit
        frames, cursor = self.world.sse.frames_since(since, limit=limit)
        return Response(
            200,
            "".join(frames).encode("utf-8"),
            content_type="text/event-stream",
            headers=(("X-SSE-Cursor", str(cursor)),),
        )

    def _near(self, ue_text: str, query: dict[str, str]) -> Response:
        ue = self._parse_ue(ue_text)
        if isinstance(ue, Response):
            return ue
        limit = self._int_param(query, "limit", None)
        if isinstance(limit, Response):
            return limit
        neighbors = self.world.neighbors.near(ue, limit=limit)
        return _json_response(
            200,
            {
                "ue": ue,
                "time_ms": self.world.now_ms,
                "count": len(neighbors),
                "neighbors": [
                    {
                        "device": nb.device,
                        "power_dbm": round(nb.power_dbm, 6),
                        "distance_m": round(nb.distance_m, 6),
                    }
                    for nb in neighbors
                ],
            },
        )

    def _fragment(self, ue_text: str, query: dict[str, str]) -> Response:
        ue = self._parse_ue(ue_text)
        if isinstance(ue, Response):
            return ue
        limit = self._int_param(query, "limit", None)
        if isinstance(limit, Response):
            return limit
        info = self.world.fragment_view().fragment_of(ue)
        assert info is not None  # active UEs always have a fragment
        members = list(info.members)
        truncated = limit is not None and limit < len(members)
        if limit is not None:
            members = members[: max(0, limit)]
        return _json_response(
            200,
            {
                "ue": ue,
                "fragment_id": info.fragment_id,
                "size": info.size,
                "members": members,
                "truncated": truncated,
                "tree_version": self.world.tree_version,
            },
        )

    def _world_action(self, action: str, request: Request) -> Response:
        w = self.world
        if action == "pause":
            w.pause()
            return _json_response(200, {"paused": True, "time_ms": w.now_ms})
        if action == "resume":
            w.resume()
            return _json_response(200, {"paused": False, "time_ms": w.now_ms})
        steps = 1
        if request.body:
            try:
                doc = json.loads(request.body)
            except ValueError:
                return _error(400, "body must be JSON")
            if not isinstance(doc, dict):
                return _error(400, "body must be a JSON object")
            steps = doc.get("steps", 1)
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
            return _error(400, "steps must be a positive integer")
        if steps > MAX_STEPS_PER_REQUEST:
            return _error(
                400, f"steps must be <= {MAX_STEPS_PER_REQUEST}"
            )
        events = []
        try:
            for _ in range(steps):
                events.extend(w.step(trace=self._current_trace))
        except WorldPausedError as exc:
            return _error(409, str(exc))
        return _json_response(
            200,
            {
                "stepped": steps,
                "step": w.step_index,
                "time_ms": w.now_ms,
                "population": w.population,
                "events": [
                    {
                        "kind": e.kind,
                        "device": e.device,
                        "messages": e.messages,
                        "succeeded": e.succeeded,
                        "population": e.active_count,
                    }
                    for e in events
                ],
            },
        )

    # ------------------------------------------------------------------
    # parsing helpers
    # ------------------------------------------------------------------
    def _parse_ue(self, text: str) -> int | Response:
        try:
            ue = int(text)
        except ValueError:
            return _error(400, f"UE id must be an integer, got {text!r}")
        if not 0 <= ue < self.world.network.n:
            return _error(404, f"unknown UE {ue}")
        if not self.world.is_active(ue):
            return _error(404, f"UE {ue} is not active")
        return ue

    @staticmethod
    def _int_param(
        query: dict[str, str], name: str, default: int | None
    ) -> int | None | Response:
        raw = query.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            return _error(400, f"{name} must be an integer, got {raw!r}")
        if value < 0:
            return _error(400, f"{name} must be >= 0")
        return value
