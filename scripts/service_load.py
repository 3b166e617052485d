#!/usr/bin/env python
"""Mixed query/churn load against a live discovery service over HTTP.

Usage::

    PYTHONPATH=src python scripts/service_load.py \
        [--devices 2048] [--duration 30] [--workers 4] [--seed 1]

Boots a :class:`~repro.service.http.ServiceThread` on an OS-assigned
port, then drives it from ``--workers`` client threads for
``--duration`` wall seconds: each worker loops a mixed script of
``/near``, ``/fragment``, ``/sync`` and ``/events`` queries (including
deliberate 404s) while a churn thread posts ``/world/step`` and cycles
``pause``/``resume``.  This is the CI ``service-smoke`` gate:

* **zero 5xx** across the whole run (4xx are expected — the script
  provokes them on purpose), cross-checked against the ops plane: the
  availability SLO must have fired **zero** alerts;
* client-side p50/p95/p99 latency is reported per run;
* a final ``/metrics`` scrape must parse and carry the per-endpoint
  request counters and world gauges.

The service runs with the full ops plane attached (tracing, SLO burn
analysis, flight recorder), so the smoke run also exercises the
instrumented hot path; on failure a flight-recorder bundle is written
to ``--flight-dir`` for the CI artifact upload.

Exit codes: 0 ok, 1 load failure (5xx seen, SLO/alert mismatch or
metrics missing), 2 setup error.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
import urllib.error
import urllib.request


def _request(url: str, data: bytes | None = None) -> tuple[int, bytes]:
    req = urllib.request.Request(
        url, data=data, method="POST" if data is not None else "GET"
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class LoadStats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.by_status: dict[int, int] = {}
        self.errors: list[str] = []
        self.latencies_ms: list[float] = []

    def note(self, status: int, elapsed_s: float | None = None) -> None:
        with self.lock:
            self.by_status[status] = self.by_status.get(status, 0) + 1
            if elapsed_s is not None:
                self.latencies_ms.append(elapsed_s * 1000.0)

    def fail(self, message: str) -> None:
        with self.lock:
            self.errors.append(message)

    @property
    def total(self) -> int:
        return sum(self.by_status.values())

    @property
    def five_xx(self) -> int:
        return sum(c for s, c in self.by_status.items() if s >= 500)

    def percentile(self, q: float) -> float:
        """Client-side latency percentile (ms) by nearest-rank."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[rank]


def query_worker(
    base: str, n: int, stats: LoadStats, stop: threading.Event, wid: int
) -> None:
    script = [
        f"/near/{(wid * 131 + i * 17) % n}?limit=8" for i in range(8)
    ] + [
        f"/fragment/{(wid * 37 + 5) % n}?limit=16",
        "/sync",
        "/health",
        f"/near/{n + 99}",  # deliberate 404
        "/events?since=0&limit=4",
    ]
    i = 0
    while not stop.is_set():
        try:
            t0 = time.perf_counter()
            status, _ = _request(base + script[i % len(script)])
            stats.note(status, time.perf_counter() - t0)
        except Exception as exc:  # noqa: BLE001 — any transport failure fails the gate
            stats.fail(f"worker {wid}: {type(exc).__name__}: {exc}")
            return
        i += 1


def churn_worker(base: str, stats: LoadStats, stop: threading.Event) -> None:
    i = 0
    while not stop.is_set():
        try:
            status, _ = _request(base + "/world/step", b'{"steps": 1}')
            stats.note(status)
            if i % 7 == 3:  # exercise the pause/resume/409 path under load
                stats.note(_request(base + "/world/pause", b"")[0])
                stats.note(_request(base + "/world/step", b"")[0])
                stats.note(_request(base + "/world/resume", b"")[0])
        except Exception as exc:  # noqa: BLE001
            stats.fail(f"churn: {type(exc).__name__}: {exc}")
            return
        i += 1
        time.sleep(0.05)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--devices", "-n", type=int, default=2048)
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--flight-dir",
        default="results/flight",
        help="flight-recorder bundle directory (written on failure)",
    )
    args = parser.parse_args(argv)

    from repro.core.config import PaperConfig
    from repro.service import (
        DiscoveryApp,
        ServiceThread,
        SteadyStateWorld,
        WorldConfig,
    )

    try:
        base_cfg = PaperConfig(n_devices=args.devices, seed=args.seed)
        wcfg = WorldConfig(
            base=base_cfg,
            arrival_rate=max(2.0, args.devices / 64.0),
            departure_rate=max(2.0, args.devices / 64.0),
            min_population=max(2, args.devices // 8),
        )
        t0 = time.perf_counter()
        world = SteadyStateWorld(wcfg)
        build_s = time.perf_counter() - t0
    except ValueError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return 2
    print(
        f"world ready: n={args.devices} pop={world.population} "
        f"({build_s:.1f}s build)"
    )

    import json as _json

    from repro.obs import FlightRecorder
    from repro.obs.ops import OpsPlane

    plane = OpsPlane(flight=FlightRecorder())
    app = DiscoveryApp(world, ops=plane)
    stats = LoadStats()
    stop = threading.Event()
    with ServiceThread(app) as svc:
        print(f"serving on {svc.url}; load for {args.duration:.0f}s")
        threads = [
            threading.Thread(
                target=query_worker,
                args=(svc.url, args.devices, stats, stop, wid),
                daemon=True,
            )
            for wid in range(args.workers)
        ]
        threads.append(
            threading.Thread(
                target=churn_worker, args=(svc.url, stats, stop), daemon=True
            )
        )
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        time.sleep(args.duration)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        wall = time.perf_counter() - t0
        status, metrics_body = _request(svc.url + "/metrics")
        slo_status, slo_body = _request(svc.url + "/ops/slo")

    print(
        f"{stats.total} requests in {wall:.1f}s "
        f"({stats.total / wall:.0f} req/s over HTTP)"
    )
    for code in sorted(stats.by_status):
        print(f"  {code}: {stats.by_status[code]}")
    print(
        "client latency: "
        f"p50={stats.percentile(0.50):.2f}ms "
        f"p95={stats.percentile(0.95):.2f}ms "
        f"p99={stats.percentile(0.99):.2f}ms "
        f"({len(stats.latencies_ms)} timed)"
    )

    ok = True
    availability_alerts = None
    if slo_status == 200:
        slo_doc = _json.loads(slo_body)
        availability_alerts = sum(
            1
            for alert in slo_doc.get("alerts", [])
            if alert.get("context", {}).get("kind") == "availability"
        )
        for s in slo_doc.get("slos", []):
            print(
                f"SLO {s['slo']}: {s['bad_in_window']}/{s['window']} bad, "
                f"burn={s['burn_rate']:.2f}, alerts={s['alerts']}"
            )
    else:
        ok = False
        print("FAIL: /ops/slo unreachable", file=sys.stderr)
    # the zero-5xx gate and the availability SLO must agree: any 5xx is
    # a failure, and so is an availability alert without one (or vice
    # versa a silent SLO while 5xx happened in alertable volume)
    if availability_alerts:
        ok = False
        print(
            f"FAIL: availability SLO fired {availability_alerts} alert(s)",
            file=sys.stderr,
        )
    if stats.errors:
        ok = False
        for err in stats.errors[:10]:
            print(f"transport failure: {err}", file=sys.stderr)
    if stats.five_xx:
        ok = False
        print(f"FAIL: {stats.five_xx} 5xx responses", file=sys.stderr)
    if status != 200 or b"repro_service_requests_total" not in metrics_body:
        ok = False
        print("FAIL: /metrics scrape missing request counters", file=sys.stderr)
    if b"repro_world_population" not in metrics_body:
        ok = False
        print("FAIL: /metrics scrape missing world gauges", file=sys.stderr)
    if stats.total == 0:
        ok = False
        print("FAIL: no requests completed", file=sys.stderr)
    if not ok and args.flight_dir:
        try:
            plane.flush()  # queued request records reach the rings first
            json_path, html_path = plane.flight.dump(
                "service-load-failure", args.flight_dir
            )
            print(f"flight bundle: {json_path} / {html_path}", file=sys.stderr)
        except OSError as exc:
            print(f"flight dump failed: {exc}", file=sys.stderr)
    print("service-smoke:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
