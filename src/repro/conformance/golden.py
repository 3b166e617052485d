"""Golden-trace capture and replay.

A **golden trace** is a canonical, version-stamped record of everything
a run promises to keep stable: the traced event stream (PS
transmissions, fragment merges, beacon periods, crashes), a per-round
digest of the phase vector after every avalanche instant, the fragment
merge sequence, the per-kind message bill and the result record — plus
a SHA-256 content hash over the canonical serialization of all of it.

Capture runs an algorithm under a private observability bundle with
per-event trace retention and a kernel ``phase_hook``; replay rebuilds
the configuration stamped into the golden, captures a fresh run and
reports the **first diverging round/event** (see
:func:`repro.conformance.report.first_divergence`) instead of a bare
hash mismatch.

Hardware PCO validation does exactly this against recorded reference
traces (Brandner et al.); here it is the regression gate that keeps
clean and faulty runs bitwise reproducible while the kernels keep
getting faster.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.conformance.canonical import (
    combine_hashes,
    content_hash,
    hash_array,
    to_jsonable,
)
from repro.conformance.report import Divergence, first_divergence
from repro.core.config import PaperConfig
from repro.core.fst import FSTSimulation
from repro.core.network import D2DNetwork
from repro.core.pulsesync import SparsePulseSyncKernel
from repro.core.st import STSimulation
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs import Observability
from repro.oscillator.prc import LinearPRC

#: Golden file format version; bump on any incompatible schema change.
GOLDEN_SCHEMA = "repro.conformance/1"

#: Algorithms the capture layer knows how to drive.
ALGORITHMS = ("st", "fst", "pulsesync")

#: Layout tag in corpus golden names.  Every run uses the CSR (sparse)
#: network layout; the tag keeps the committed corpus names stable.
CORPUS_LAYOUT = "sparse"

#: Event streams longer than this are elided from the stored golden
#: (counts + stream hash are always kept, so divergence detection still
#: works — only per-event pinpointing degrades to per-category counts).
MAX_GOLDEN_EVENTS = 5000


# ----------------------------------------------------------------------
# config stamping
# ----------------------------------------------------------------------
def config_summary(config: PaperConfig) -> dict[str, Any]:
    """The constructor facts a golden needs to rebuild its config."""
    faults = config.faults
    return {
        "n_devices": config.n_devices,
        "area_side_m": config.area_side_m,
        "seed": config.seed,
        "faults": faults.to_spec() if faults is not None else None,
    }


def config_from_summary(summary: dict[str, Any]) -> PaperConfig:
    """Rebuild the capture config from a golden's ``config`` stamp."""
    faults = summary.get("faults")
    return PaperConfig(
        n_devices=int(summary["n_devices"]),
        area_side_m=float(summary["area_side_m"]),
        seed=int(summary["seed"]),
        faults=FaultConfig.from_spec(faults) if faults else None,
    )


# ----------------------------------------------------------------------
# the golden record
# ----------------------------------------------------------------------
@dataclass
class GoldenTrace:
    """One captured run in canonical form (see module docstring)."""

    name: str
    algorithm: str
    config: dict[str, Any]
    result: dict[str, Any]
    bill: dict[str, int]
    events: list[list[Any]] | None
    events_elided: bool
    event_counts: dict[str, int]
    event_hash: str
    phase_rounds: list[str]
    phase_stream_hash: str
    merges: list[list[int]]
    schema: str = GOLDEN_SCHEMA
    content_hash: str = field(default="")

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if not self.content_hash:
            self.content_hash = content_hash(self.doc(include_hash=False))

    # ------------------------------------------------------------------
    def doc(self, include_hash: bool = True) -> dict[str, Any]:
        """JSON-safe document form (canonicalized builtins)."""
        doc = to_jsonable(
            {
                "schema": self.schema,
                "name": self.name,
                "algorithm": self.algorithm,
                "config": self.config,
                "result": self.result,
                "bill": self.bill,
                "events": self.events,
                "events_elided": self.events_elided,
                "event_counts": self.event_counts,
                "event_hash": self.event_hash,
                "phase_rounds": self.phase_rounds,
                "phase_stream_hash": self.phase_stream_hash,
                "merges": self.merges,
            }
        )
        if include_hash:
            doc["content_hash"] = self.content_hash
        return doc

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "GoldenTrace":
        if doc.get("schema") != GOLDEN_SCHEMA:
            raise ValueError(
                f"unsupported golden schema {doc.get('schema')!r} "
                f"(expected {GOLDEN_SCHEMA})"
            )
        return cls(
            name=doc["name"],
            algorithm=doc["algorithm"],
            config=doc["config"],
            result=doc["result"],
            bill=doc["bill"],
            events=doc.get("events"),
            events_elided=bool(doc.get("events_elided", False)),
            event_counts=doc.get("event_counts", {}),
            event_hash=doc.get("event_hash", ""),
            phase_rounds=doc.get("phase_rounds", []),
            phase_stream_hash=doc.get("phase_stream_hash", ""),
            merges=doc.get("merges", []),
            content_hash=doc.get("content_hash", ""),
        )

    # ------------------------------------------------------------------
    def integrity_ok(self) -> bool:
        """True iff the stored content hash matches the payload.

        A False return means the golden *file* was edited or corrupted
        (as opposed to the code under test diverging from it).
        """
        return self.content_hash == content_hash(self.doc(include_hash=False))

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        p = pathlib.Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(self.doc(), sort_keys=True, indent=1) + "\n")
        return p

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "GoldenTrace":
        return cls.from_doc(json.loads(pathlib.Path(path).read_text()))


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def _pulsesync_capture(
    net: D2DNetwork, obs: Observability, phase_hook
) -> tuple[dict[str, Any], dict[str, int]]:
    """Run the bare sync kernel over the proximity mesh (no discovery)."""
    cfg = net.config
    prc = LinearPRC.from_dissipation(cfg.dissipation, cfg.epsilon)
    opts = dict(
        period_ms=cfg.period_ms,
        threshold_dbm=cfg.threshold_dbm,
        refractory_ms=cfg.refractory_ms,
        sync_window_ms=cfg.sync_window_ms,
        collision_policy=cfg.collision_policy,
    )
    budget = net.sparse_budget
    kernel = SparsePulseSyncKernel(
        budget.link_indptr,
        budget.link_indices,
        budget.link_power_dbm,
        prc,
        fading=budget.fading,
        **opts,
    )
    res = kernel.run(
        net.streams.stream("pulsesync"),
        max_time_ms=cfg.max_time_ms,
        require_sync=True,
        obs=obs,
        obs_labels={"algorithm": "pulsesync", "stage": "sync"},
        faults=FaultPlan.from_config(cfg),
        phase_hook=phase_hook,
    )
    result = {
        "converged": res.converged,
        "time_ms": res.time_ms,
        "messages": res.messages,
        "fires": res.fires,
        "instants": res.instants,
        "final_spread_ms": res.final_spread_ms,
        "sync_time_ms": res.sync_time_ms,
    }
    bill = obs.account_messages(
        "pulsesync", {"sync_pulse": (res.messages, "rach1")}
    )
    return result, bill


def capture_run(
    config: PaperConfig,
    algorithm: str,
    *,
    name: str | None = None,
    max_events: int | None = MAX_GOLDEN_EVENTS,
) -> GoldenTrace:
    """Execute one run and return its golden-trace record.

    The run executes under a fresh private
    :class:`~repro.obs.Observability` bundle with trace retention and a
    kernel phase hook — both pure observation, so a captured run is
    bitwise the run an uninstrumented caller would get.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}"
        )
    obs = Observability(keep_trace=True)
    phase_rounds: list[str] = []

    def phase_hook(_instant: int, _t: float, phases) -> None:
        phase_rounds.append(hash_array(phases))

    net = D2DNetwork(config)
    if algorithm == "pulsesync":
        result, bill = _pulsesync_capture(net, obs, phase_hook)
    else:
        sim_cls = STSimulation if algorithm == "st" else FSTSimulation
        run = sim_cls(net, obs=obs, phase_hook=phase_hook).run()
        result = {
            "converged": run.converged,
            "time_ms": run.time_ms,
            "messages": run.messages,
            "tree_edges": [list(e) for e in run.tree_edges],
            "extra": dict(run.extra),
        }
        bill = dict(run.message_breakdown)

    records = obs.trace.records()
    events = [[r.time, r.category, dict(sorted(r.data.items()))] for r in records]
    event_counts = {c: obs.trace.count(c) for c in obs.trace.categories}
    ev_hash = content_hash(events)
    merges = [
        [int(r["u"]), int(r["v"]), int(r["phase"])]
        for r in records
        if r.category == "merge"
    ]
    elide = max_events is not None and len(events) > max_events
    return GoldenTrace(
        name=name or default_name(config, algorithm),
        algorithm=algorithm,
        config=config_summary(config),
        result=result,
        bill=bill,
        events=None if elide else events,
        events_elided=elide,
        event_counts=event_counts,
        event_hash=ev_hash,
        phase_rounds=phase_rounds,
        phase_stream_hash=combine_hashes(phase_rounds),
        merges=merges,
    )


def default_name(config: PaperConfig, algorithm: str) -> str:
    """Corpus naming convention: ``{algo}-sparse-{clean|faulted}-n{n}``."""
    faulted = config.faults is not None and config.faults.active
    return (
        f"{algorithm}-{CORPUS_LAYOUT}-"
        f"{'faulted' if faulted else 'clean'}-n{config.n_devices}"
    )


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def replay(golden: GoldenTrace) -> tuple[GoldenTrace, Divergence | None]:
    """Re-execute a golden's run and locate the first divergence.

    Goldens whose config stamp carries a ``tiles`` key are sharded
    captures and dispatch to
    :func:`repro.shard.conformance.replay_city`.
    """
    if "tiles" in golden.config:
        from repro.shard.conformance import replay_city

        return replay_city(golden)
    config = config_from_summary(golden.config)
    # same elision policy as record, so identical runs yield identical docs
    fresh = capture_run(config, golden.algorithm, name=golden.name)
    div = first_divergence(
        golden.doc(), fresh.doc(), pair=f"golden-vs-run:{golden.name}"
    )
    return fresh, div
