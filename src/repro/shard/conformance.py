"""Sharded golden capture/replay and the sharded-vs-single diff pair.

A **sharded golden** is an ordinary :class:`~repro.conformance.golden.
GoldenTrace` whose config stamp carries a ``tiles`` key.  Its payload is
the deterministic merge of the per-shard captures: event counts summed,
event hashes and phase digests combined in shard order, merges
translated to global ids, bills merged per kind, plus the halo section
(cross-tile link digest) inside the result.  Because every section is a
pure function of the per-shard golden docs — which are themselves
byte-identical to standalone single-region captures of
:meth:`~repro.shard.tiling.CityConfig.shard_config` — replaying a
sharded golden exercises the whole determinism contract: shard seeds,
pool reassembly, halo exchange and merge order.

:func:`~repro.conformance.golden.replay` dispatches here whenever it
meets a ``tiles`` stamp, so the corpus machinery (``verify_corpus``,
``repro conformance corpus verify``, the CI canary) handles sharded
goldens with no special cases.
"""

from __future__ import annotations

from typing import Any

from repro.conformance.canonical import combine_hashes, content_hash
from repro.conformance.golden import (
    ALGORITHMS,
    GoldenTrace,
    capture_run,
    config_from_summary,
    config_summary,
)
from repro.conformance.report import Divergence, first_divergence
from repro.core.config import PaperConfig
from repro.shard.runner import run_city
from repro.shard.tiling import CityConfig

#: Golden sections that are pure protocol content — independent of the
#: config stamp.  Per-shard payload hashes cover exactly these.
PAYLOAD_SECTIONS = (
    "result",
    "bill",
    "events",
    "events_elided",
    "event_counts",
    "event_hash",
    "phase_rounds",
    "phase_stream_hash",
    "merges",
)


def shard_payload_hash(doc: dict[str, Any]) -> str:
    """Stamp-independent content hash of one shard's golden doc."""
    return content_hash({k: doc[k] for k in PAYLOAD_SECTIONS})


def shard_default_name(city: CityConfig, algorithm: str) -> str:
    """Sharded corpus naming: ``{algo}-shard{R}x{C}-{clean|faulted}-n{n}``."""
    faults = city.base.faults
    faulted = faults is not None and faults.active
    return (
        f"{algorithm}-shard{city.rows}x{city.cols}-"
        f"{'faulted' if faulted else 'clean'}-n{city.base.n_devices}"
    )


def city_config_summary(city: CityConfig) -> dict[str, Any]:
    """The golden config stamp of a sharded capture (base + ``tiles``)."""
    return {**config_summary(city.base), "tiles": [city.rows, city.cols]}


def city_from_summary(summary: dict[str, Any]) -> CityConfig:
    """Rebuild the city config from a sharded golden's stamp."""
    summary = dict(summary)
    rows, cols = summary.pop("tiles")
    return CityConfig(config_from_summary(summary), int(rows), int(cols))


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def capture_city_parts(
    city: CityConfig,
    algorithm: str,
    *,
    workers: int = 1,
    name: str | None = None,
) -> tuple[GoldenTrace, list[dict[str, Any]]]:
    """Capture a sharded run; also return the per-shard golden docs.

    The per-shard docs are exactly what
    ``capture_run(city.shard_config(s), algorithm)`` produces standalone
    — the diff pair asserts that equality doc for doc.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}"
        )
    res = run_city(
        city, algorithms=(algorithm,), workers=workers, capture=True
    )
    shard_docs = [shard["runs"][algorithm] for shard in res.shards]

    event_counts: dict[str, int] = {}
    phase_rounds: list[str] = []
    merges: list[list[int]] = []
    converged = True
    time_ms = 0.0
    messages = 0
    shard_summaries = []
    for shard_id, doc in enumerate(shard_docs):
        for category, count in doc["event_counts"].items():
            event_counts[category] = event_counts.get(category, 0) + count
        phase_rounds.extend(doc["phase_rounds"])
        offset = city.device_offset(shard_id)
        merges.extend(
            [int(u) + offset, int(v) + offset, int(phase)]
            for u, v, phase in doc["merges"]
        )
        converged &= bool(doc["result"]["converged"])
        time_ms = max(time_ms, float(doc["result"]["time_ms"]))
        messages += int(doc["result"]["messages"])
        shard_summaries.append(
            {
                "shard_id": shard_id,
                "n": city.shard_counts()[shard_id],
                "seed": doc["config"]["seed"],
                "payload_hash": shard_payload_hash(doc),
                "result": doc["result"],
            }
        )
    halo = res.halo
    result = {
        "converged": converged,
        "time_ms": time_ms,
        "messages": messages + halo["messages"],
        "halo": halo,
        "shards": shard_summaries,
    }
    trace = GoldenTrace(
        name=name or shard_default_name(city, algorithm),
        algorithm=algorithm,
        config=city_config_summary(city),
        result=result,
        bill=res.bill[algorithm],
        events=None,
        events_elided=True,
        event_counts=dict(sorted(event_counts.items())),
        event_hash=combine_hashes([d["event_hash"] for d in shard_docs]),
        phase_rounds=phase_rounds,
        phase_stream_hash=combine_hashes(phase_rounds),
        merges=merges,
    )
    return trace, shard_docs


def capture_city(
    city: CityConfig,
    algorithm: str,
    *,
    workers: int = 1,
    name: str | None = None,
) -> GoldenTrace:
    """Capture a sharded run as a golden trace (see module docstring)."""
    trace, _ = capture_city_parts(
        city, algorithm, workers=workers, name=name
    )
    return trace


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def replay_city(golden: GoldenTrace) -> tuple[GoldenTrace, Divergence | None]:
    """Re-execute a sharded golden and locate the first divergence.

    Mirrors :func:`~repro.conformance.golden.replay`.
    """
    city = city_from_summary(golden.config)
    fresh = capture_city(city, golden.algorithm, name=golden.name)
    div = first_divergence(
        golden.doc(), fresh.doc(), pair=f"golden-vs-run:{golden.name}"
    )
    return fresh, div


# ----------------------------------------------------------------------
# differential runner: sharded vs single-region
# ----------------------------------------------------------------------
def diff_shard(
    config: PaperConfig,
    algorithms: tuple[str, ...] = ("st", "fst", "pulsesync"),
) -> "Any":
    """Sharded execution must equal the standalone per-shard runs.

    Three promises, checked in order:

    1. every per-shard capture inside a 2×2 sharded run is byte-identical
       to ``capture_run(city.shard_config(s), algorithm)`` run standalone
       — the replay-in-isolation contract;
    2. the assembled sharded golden is deterministic (two inline
       captures agree);
    3. pool execution (``workers=2``) produces the byte-identical golden
       to inline execution — the reassembly contract.
    """
    from repro.conformance.differential import DiffOutcome, _note
    from repro.obs import Observability, get_active

    obs = get_active() or Observability()
    pair = "sharded-vs-single"
    with obs.span("conformance_diff", pair=pair):
        city = CityConfig(config, 2, 2)
        for algorithm in algorithms:
            trace, shard_docs = capture_city_parts(city, algorithm)
            for shard_id, doc in enumerate(shard_docs):
                standalone = capture_run(
                    city.shard_config(shard_id), algorithm
                )
                div = first_divergence(
                    doc,
                    standalone.doc(),
                    pair=f"{pair}:{algorithm}:shard{shard_id}",
                )
                if div is not None:
                    _note(obs, pair, div)
                    return DiffOutcome(
                        pair, div, f"{algorithm} shard {shard_id} diverged"
                    )
            again = capture_city(city, algorithm)
            div = first_divergence(
                trace.doc(), again.doc(), pair=f"{pair}:{algorithm}:repeat"
            )
            if div is not None:
                _note(obs, pair, div)
                return DiffOutcome(
                    pair, div, f"{algorithm} capture not deterministic"
                )
        pooled = capture_city(city, algorithms[0], workers=2)
        inline = capture_city(city, algorithms[0], workers=1)
        div = first_divergence(
            inline.doc(), pooled.doc(), pair=f"{pair}:{algorithms[0]}:pool"
        )
        if div is None and pooled.content_hash != inline.content_hash:
            div = Divergence(
                pair=f"{pair}:{algorithms[0]}:pool",
                kind="content",
                location="content_hash",
                expected=inline.content_hash,
                actual=pooled.content_hash,
            )
        _note(obs, pair, div)
        if div is not None:
            return DiffOutcome(pair, div, "pool execution diverged")
        return DiffOutcome(
            pair,
            None,
            f"{', '.join(algorithms)} sharded 2x2 == standalone shards at "
            f"n={config.n_devices} seed={config.seed}; pool == inline",
        )
