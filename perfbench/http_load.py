"""The ``service`` workload: a churning discovery service under HTTP load.

``perfbench/serve.py`` runs the service in its own process (world build,
ops plane, asyncio HTTP server).  One client drives it in a closed loop
over a keep-alive connection: it sends its next request when the
previous answer arrives.  The mix is the one ``benchmarks/bench_service.py``
declares: a ``/world/step`` churn epoch, then :data:`QUERIES_PER_STEP`
queries, of which 18 in 20 are ``/near``, 1 in 20 ``/fragment`` and 1 in
20 ``/sync``.  One operation is one HTTP request; the churn step is the
slowest.
One client keeps queueing out of the round trip, so a slower handler
or wire layer shows directly in the latency.

Set-up is the service's cold start: spawn the process, build the world,
listen, answer ``/health``.  It runs :data:`SETUP_REPEATS` times; the
last server is the one measured.

Correctness: no 5xx and no transport error; the server handled exactly
the answered requests; and the first :data:`REPLAYED` requests, replayed
in the order the server handled them against a fresh in-process world
(no HTTP, no ops plane), reproduce their answers byte for byte, with
every ``/near`` answer strongest-first, distinct and within its limit.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from urllib.parse import urlencode

from common import DEVICES, HERE, ROOT, SETUP_REPEATS, child_env

#: Queries after each churn epoch, as in ``benchmarks/bench_service.py``.
QUERIES_PER_STEP = 2000
WARM_UP_REQUESTS = 40
#: Requests replayed and checked in full, from the start of the run.
REPLAYED = 20_000


def next_request(rng: random.Random, tag: str, i: int) -> tuple[str, str, dict, bytes]:
    """Request ``i`` of one client's script; ``tag`` makes it unique."""
    query = {"c": f"{tag}.{i}"}
    j = i % (QUERIES_PER_STEP + 1) - 1
    if j < 0:
        return "POST", "/world/step", query, b'{"steps": 1}'
    ue = rng.randrange(DEVICES)
    if j % 20 == 19:
        return "GET", "/sync", query, b""
    if j % 20 == 9:
        return "GET", f"/fragment/{ue}", {**query, "limit": "16"}, b""
    return "GET", f"/near/{ue}", {**query, "limit": "8"}, b""


class Client:
    """One closed-loop client on one keep-alive connection."""

    def __init__(self, port: int, tag: str, seed: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.tag = tag
        self.rng = random.Random(f"{seed}:{tag}")
        self.i = 0
        #: (request, status, body, seconds) per completed request
        self.records: list[tuple[tuple, int, bytes, float]] = []
        self.error: str | None = None

    def send(self) -> None:
        request = next_request(self.rng, self.tag, self.i)
        method, path, query, body = request
        t0 = time.perf_counter()
        self.conn.request(method, f"{path}?{urlencode(query)}", body=body or None)
        response = self.conn.getresponse()
        data = response.read()
        self.records.append((request, response.status, data, time.perf_counter() - t0))
        self.i += 1

    def loop(self, deadline: float) -> None:
        try:
            while time.perf_counter() < deadline:
                self.send()
        except (OSError, http.client.HTTPException) as exc:
            self.error = f"client {self.tag}: {type(exc).__name__}: {exc}"
        finally:
            self.conn.close()


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
def start_server(world_seed: int) -> tuple[subprocess.Popen, dict, float]:
    """Spawn the service; return it once ``/health`` answers, with its cold start."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "serve.py"), "--seed", str(world_seed)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
    )
    try:
        ready_fds, _, _ = select.select([proc.stdout], [], [], 120)
        line = proc.stdout.readline() if ready_fds else b""
        if not line:
            raise RuntimeError("service process did not start")
        ready = json.loads(line)
        conn = http.client.HTTPConnection("127.0.0.1", ready["port"], timeout=60)
        try:
            conn.request("GET", "/health")
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"/health answered {response.status}")
    except BaseException:
        stop_server(proc)
        raise
    return proc, ready, time.perf_counter() - t0


def stop_server(proc: subprocess.Popen) -> dict | None:
    """SIGTERM the service and collect its final report."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    lines = out.splitlines()  # the ready line was read at start-up
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_answer(request: tuple, status: int, body: bytes) -> str | None:
    """Semantic checks of one answer, independent of the replay."""
    method, path, query, _ = request
    if path.startswith(("/near/", "/fragment/")):
        if status not in (200, 404):
            return f"{path}: unexpected {status}"
        if status == 404 or not path.startswith("/near/"):
            return None
        doc = json.loads(body)
        powers = [nb["power_dbm"] for nb in doc["neighbors"]]
        devices = [nb["device"] for nb in doc["neighbors"]]
        if doc["count"] != len(powers) or len(powers) > int(query["limit"]):
            return f"{path}: {len(powers)} neighbours for limit {query['limit']}"
        if powers != sorted(powers, reverse=True):
            return f"{path}: neighbours not strongest first"
        if len(set(devices)) != len(devices) or doc["ue"] in devices:
            return f"{path}: repeated neighbour"
        return None
    if status != 200:
        return f"{method} {path}: unexpected {status}"
    return None


def replay(world_seed: int, order: list, answers: dict) -> list[str]:
    """Re-run the server's first requests in-process; check their answers.

    ``answers`` maps each client request's tag to ``(request, status,
    body)``.  The server must have handled exactly the answered requests;
    the first :data:`REPLAYED` of them, in the server's order, must give
    the same bytes on a fresh world and pass :func:`check_answer`.
    """
    from repro.service import DiscoveryApp, SteadyStateWorld
    from repro.service.app import Request
    from serve import world_config

    tags = [query.get("c") for _, _, query, _, _ in order]
    if sorted(filter(None, tags)) != sorted(answers):
        return ["the server's requests differ from the answered ones"]
    app = DiscoveryApp(SteadyStateWorld(world_config(world_seed)))
    errors = []
    for method, path, query, body, _ in order[:REPLAYED]:
        response = app.handle(Request(method, path, query, body.encode()))
        answer = answers.get(query.get("c"))
        if answer is None:
            continue
        request, status, data = answer
        if (response.status, response.body) != (status, data):
            errors.append(f"{method} {path} c={query['c']}: replay differs")
        problem = check_answer(request, status, data)
        if problem:
            errors.append(problem)
    return errors


# ----------------------------------------------------------------------
# the measured run
# ----------------------------------------------------------------------
def run_service(seed: int, seconds: float, trace: bool) -> dict:
    world_seed = random.Random(seed).randrange(1, 2**31)
    setup = []
    for _ in range(0 if trace else SETUP_REPEATS - 1):
        proc, _, cold_s = start_server(world_seed)
        setup.append(cold_s)
        stop_server(proc)
    proc, ready, cold_s = start_server(world_seed)
    setup.append(cold_s)
    warm = Client(ready["port"], "w", seed)
    client = Client(ready["port"], "c", seed)
    try:
        for _ in range(WARM_UP_REQUESTS):  # a churn epoch, then queries
            warm.send()
        warm.conn.close()
        start = time.perf_counter()
        client.loop(start + seconds)
        busy_s = time.perf_counter() - start
    finally:
        report = stop_server(proc)
    if report is None:
        raise RuntimeError("service process did not report")

    errors = [client.error] if client.error else []
    answers = {}
    for request, status, body, _ in warm.records + client.records:
        if status >= 500:
            errors.append(f"{request[0]} {request[1]}: {status}")
        answers[request[2]["c"]] = (request, status, body)
    errors += replay(world_seed, report["order"], answers)
    for message in errors[:10]:
        print(f"check failed: {message}", flush=True)

    measured = client.records
    latencies = [seconds_ for *_, seconds_ in measured]
    layers = {}
    if trace:
        layers = service_layers(measured, report["order"], ready["build_s"])
    return {
        "latency_s": statistics.median(latencies),
        # the slowest operation, one kind: a p99 over the query mix lands
        # on scheduling jitter, which varies between runs far more than
        # the work of a step does
        "tail_s": statistics.median(
            seconds_ for request, *_, seconds_ in measured
            if request[1] == "/world/step"
        ),
        "latencies_s": latencies,
        "busy_s": busy_s,
        "attempted": len(measured) + (1 if client.error else 0),
        "failed": len(errors),
        "correct": not errors,
        "setup_s": setup,
        "layers": layers,
    }


def service_layers(measured: list, order: list, build_s: float) -> dict:
    """Per-layer split of the measured requests: handler time in the
    server versus the rest of each round trip.  The measured script
    starts with a churn epoch, so there is always a step."""
    handler_s = {query.get("c"): seconds_ for _, _, query, _, seconds_ in order}
    step_s, query_s, wire_s = [], [], []
    messages = 0
    for request, status, body, seconds_ in measured:
        in_app = handler_s[request[2]["c"]]
        wire_s.append(seconds_ - in_app)
        if request[1] == "/world/step":
            step_s.append(in_app)
            if status == 200:
                messages += sum(e["messages"] for e in json.loads(body)["events"])
        else:
            query_s.append(in_app)
    return {
        "service_build_ms": build_s * 1000.0,
        "server_query_ms": statistics.fmean(query_s) * 1000.0,
        "server_step_ms": statistics.fmean(step_s) * 1000.0,
        "wire_ms": statistics.fmean(wire_s) * 1000.0,
        "churn_messages": messages / len(step_s),
        "requests": len(measured),
    }
