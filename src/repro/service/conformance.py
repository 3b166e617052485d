"""Service conformance: scripted query sessions must replay bitwise.

The service's determinism contract — same seed, same request log, same
response bytes — gets the same treatment every other equivalence in
this repo gets: a capture/diff pair.  :func:`scripted_session` derives
a fixed request log from a config (query targets are counter-hashed
from the seed, so the script itself is part of the deterministic
surface); :func:`capture_service` runs it against a *fresh* world and
records every response; :func:`diff_service` captures twice from two
independent instances and reports the first diverging response as a
:class:`~repro.conformance.report.Divergence`.

The script deliberately crosses every behaviour class: happy-path
queries, a guaranteed 404, a pause → step 409 → resume cycle, the SSE
poll, and the Prometheus scrape — so a nondeterminism bug anywhere in
the query surface shows up as a byte diff, not a flaky test somewhere
else.

:func:`service_corpus_outcomes` sweeps the scripted session across the
golden-corpus configs (``repro conformance diff service`` runs the
single-config pair; the CI conformance job runs the corpus sweep).
"""

from __future__ import annotations

from typing import Iterator

from repro.conformance.differential import DiffOutcome, _note
from repro.conformance.report import Divergence
from repro.core.config import PaperConfig
from repro.obs import Observability, get_active
from repro.obs.stream import _mix64
from repro.service.app import DiscoveryApp
from repro.service.client import RequestLog, ServiceClient
from repro.service.world import SteadyStateWorld, WorldConfig

#: Schema tag for service capture documents.
CAPTURE_SCHEMA = "repro.service.capture/1"

#: hash salt for script target selection
_SALT_SCRIPT = 0x5C817


def world_config_for(config: PaperConfig) -> WorldConfig:
    """The steady-state world the conformance pair runs over."""
    n = config.n_devices
    return WorldConfig(
        base=config,
        arrival_rate=max(1.0, n / 16.0),
        departure_rate=max(1.0, n / 16.0),
        min_population=2,
        step_ms=1000.0,
    )


def _script_ue(config: PaperConfig, i: int, population: int) -> int:
    """i-th scripted query target: counter-hashed into the initial pool."""
    h = _mix64((config.seed ^ _SALT_SCRIPT) & 0xFFFFFFFFFFFFFFFF)
    return _mix64(h ^ i) % population


def scripted_session(config: PaperConfig) -> RequestLog:
    """The fixed query script the conformance pair replays."""
    wcfg = world_config_for(config)
    pop = wcfg.resolved_initial_population
    log = RequestLog()
    log.record("GET", "/health")
    log.record("GET", "/world")
    log.record("GET", "/sync")
    log.record("POST", "/world/step", b'{"steps": 2}')
    for i in range(3):
        log.record("GET", f"/near/{_script_ue(config, i, pop)}?limit=8")
    for i in range(3, 5):
        log.record("GET", f"/fragment/{_script_ue(config, i, pop)}?limit=16")
    log.record("GET", f"/near/{config.n_devices + 5}")  # guaranteed 404
    log.record("POST", "/world/pause")
    log.record("POST", "/world/step")  # 409: world is paused
    log.record("POST", "/world/resume")
    log.record("POST", "/world/step")
    log.record("GET", "/sync")
    log.record("GET", "/events?since=0&limit=16")
    log.record("GET", "/metrics")
    return log


def capture_service(config: PaperConfig) -> dict:
    """Run the scripted session against a fresh instance; record bytes."""
    world = SteadyStateWorld(world_config_for(config))
    client = ServiceClient(DiscoveryApp(world))
    log = scripted_session(config)
    responses = []
    for method, url, body in log.entries:
        resp = client.request(method, url, body)
        responses.append(
            {
                "method": method,
                "url": url,
                "status": resp.status,
                "content_type": resp.content_type,
                "body": resp.body.decode("utf-8"),
            }
        )
    return {
        "schema": CAPTURE_SCHEMA,
        "n_devices": config.n_devices,
        "seed": config.seed,
        "responses": responses,
    }


def first_response_divergence(
    a: dict, b: dict, pair: str = "service-replay"
) -> Divergence | None:
    """First response where two capture documents disagree, or None."""
    ra, rb = a["responses"], b["responses"]
    if len(ra) != len(rb):
        return Divergence(
            pair=pair,
            kind="response",
            location="len(responses)",
            expected=len(ra),
            actual=len(rb),
        )
    for i, (x, y) in enumerate(zip(ra, rb)):
        for key in ("status", "content_type", "body"):
            if x[key] != y[key]:
                return Divergence(
                    pair=pair,
                    kind="response",
                    location=f"responses[{i}].{key} "
                    f"({x['method']} {x['url']})",
                    round=i,
                    expected=x[key],
                    actual=y[key],
                )
    return None


def diff_service(config: PaperConfig) -> DiffOutcome:
    """Two fresh instances, same seed, same script → same bytes."""
    obs = get_active() or Observability()
    with obs.span("conformance_diff", pair="service-replay"):
        first = capture_service(config)
        second = capture_service(config)
        div = first_response_divergence(first, second)
        _note(obs, "service-replay", div)
        detail = (
            f"{len(first['responses'])} scripted responses on "
            f"n={config.n_devices}"
        )
        return DiffOutcome(pair="service-replay", divergence=div, detail=detail)


def diff_service_ops(config: PaperConfig) -> DiffOutcome:
    """Ops plane on vs off: the canonical surface must not move a byte.

    The second capture runs with a process-default
    :class:`~repro.obs.ops.OpsPlane` (flight recorder attached)
    installed, so the fresh world's bundle adopts it and every request
    flows through tracing, latency histograms, SLO analysis and the
    flight rings.  Any byte the ops plane leaks into a response —
    including the ``/metrics`` exposition at the end of the script — is
    a conformance failure, which is exactly the separation the
    determinism contract demands.
    """
    from repro.obs import FlightRecorder
    from repro.obs.ops import OpsPlane, default_ops

    obs = get_active() or Observability()
    with obs.span("conformance_diff", pair="service-ops"):
        plain = capture_service(config)
        with default_ops(OpsPlane(flight=FlightRecorder())) as plane:
            instrumented = capture_service(config)
        div = first_response_divergence(plain, instrumented, "service-ops")
        _note(obs, "service-ops", div)
        plane.flush()  # closed traces are counted as they are stored
        spans = plane.metrics.counter("ops_trace_spans_total").total()
        detail = (
            f"{len(plain['responses'])} responses byte-compared, "
            f"{int(spans)} ops spans recorded on the instrumented side"
        )
        return DiffOutcome(pair="service-ops", divergence=div, detail=detail)


def service_corpus_outcomes(
    *, sample: int | None = None
) -> Iterator[tuple[str, Divergence | None]]:
    """Sweep the scripted-session replay across the golden corpus.

    Corpus specs differing only in algorithm share a world, so each
    distinct ``(n, faulted)`` cell is captured once and the
    result is reported under every golden name it covers.  ``sample``
    keeps only every k-th distinct cell (for quick smoke passes).
    """
    from repro.conformance.corpus import corpus_specs

    seen: dict[tuple, Divergence | None] = {}
    skipped: set[tuple] = set()
    index = 0
    for name, config, _algorithm in corpus_specs():
        cell = (config.n_devices, config.faults is not None)
        if cell in skipped:
            continue
        if cell not in seen:
            take = sample is None or index % sample == 0
            index += 1
            if not take:
                skipped.add(cell)
                continue
            seen[cell] = diff_service(config).divergence
        yield f"service:{name}", seen[cell]
