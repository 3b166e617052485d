"""Differential runners: paired pipelines that must agree.

Each runner executes the same ``(config, seed)`` through two pipelines
that the repo promises are equivalent and reports the **first diverging
round/event** (a :class:`~repro.conformance.report.Divergence`) rather
than a bare assert:

``faults``
    clean run vs a run under an all-zero (inactive) fault plan — the
    "inactive plans perturb nothing" promise, normalized over the
    fault-only bookkeeping keys an active plan adds.
``boruvka``
    the distributed CSR Borůvka construction the simulations run vs a
    centralized Kruskal maximum-spanning-tree oracle over the dense
    views — on distinct weights the MST is unique, so the edge lists
    must match exactly.
``shard``
    a 2×2 sharded city capture vs standalone single-region runs of each
    shard's equivalent config, plus pool-vs-inline byte equality — the
    sharding tier's replay-in-isolation and reassembly contracts
    (:func:`repro.shard.conformance.diff_shard`).
``ffa``
    sorted-FFA vs naive-FFA on the same objective and seed — both
    trajectories must be monotone non-increasing and land inside a
    quality-parity band, with the sorted variant spending strictly
    fewer comparisons (the paper's §V complexity claim).

Every runner records a ``conformance_checks_total`` /
``conformance_divergences_total`` counter pair and a
``conformance_diff`` span into the ambient observability bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.conformance.golden import capture_run
from repro.conformance.report import Divergence, first_divergence
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.faults.plan import FaultConfig
from repro.firefly.fa import BasicFireflyAlgorithm, FAParams
from repro.firefly.fa_sorted import SortedFireflyAlgorithm
from repro.firefly.objectives import sphere
from repro.obs import Observability, get_active
from repro.spanningtree.boruvka import distributed_boruvka_csr
from repro.spanningtree.mst import maximum_spanning_tree, tree_weight

#: Keys an *active-capable* fault plan adds to bills/extras even when it
#: never fires; stripped before the clean-vs-inactive comparison.
_FAULT_BOOKKEEPING_EXTRA = (
    "repairs",
    "crashed",
    "discovery_retries",
    "faults_injected",
)

#: Quality-parity band for the FFA pair: sorted may trail basic by at
#: most this multiplicative factor (plus a small absolute floor) — the
#: variants share eq. (13) but not attractor choices, so trajectories
#: differ while end quality must stay comparable.
FFA_BAND_FACTOR = 10.0
FFA_BAND_ATOL = 1.0


@dataclass(frozen=True)
class DiffOutcome:
    """Result of one paired pipeline execution."""

    pair: str
    divergence: Divergence | None
    detail: str

    @property
    def ok(self) -> bool:
        return self.divergence is None


def _note(obs: Observability, pair: str, div: Divergence | None) -> None:
    obs.metrics.counter(
        "conformance_checks_total",
        help="paired-pipeline and golden-replay conformance checks",
        unit="checks",
    ).inc(pair=pair, outcome="diverged" if div is not None else "ok")
    if div is not None:
        obs.metrics.counter(
            "conformance_divergences_total",
            help="conformance checks whose pipelines disagreed",
            unit="divergences",
        ).inc(pair=pair, kind=div.kind)


# ----------------------------------------------------------------------
# clean vs inactive fault plan
# ----------------------------------------------------------------------
def _strip_fault_bookkeeping(doc: dict) -> dict:
    """Remove the bookkeeping a (possibly inactive) plan always adds."""
    doc = dict(doc)
    doc["bill"] = {
        k: v for k, v in doc.get("bill", {}).items() if k != "repair" or v
    }
    result = dict(doc.get("result", {}))
    if isinstance(result.get("extra"), dict):
        result["extra"] = {
            k: v
            for k, v in result["extra"].items()
            if k not in _FAULT_BOOKKEEPING_EXTRA
        }
    doc["result"] = result
    return doc


def diff_fault_noop(
    config: PaperConfig, algorithms: tuple[str, ...] = ("st", "fst", "pulsesync")
) -> DiffOutcome:
    """A run under an all-zero fault plan must be a bitwise no-op.

    The inactive plan adds zero-valued bookkeeping (a ``repair: 0`` bill
    line, fault counters in ``extra``); those keys are stripped before
    comparison — the *dynamics* (events, phase rounds, merges, timing,
    message counts) must match exactly.
    """
    obs = get_active() or Observability()
    clean_cfg = config.replace(faults=None)
    noop_cfg = config.replace(faults=FaultConfig())
    with obs.span("conformance_diff", pair="clean-vs-inactive-faults"):
        for algorithm in algorithms:
            clean = capture_run(clean_cfg, algorithm)
            noop = capture_run(noop_cfg, algorithm)
            div = first_divergence(
                _strip_fault_bookkeeping(clean.doc()),
                _strip_fault_bookkeeping(noop.doc()),
                pair=f"clean-vs-inactive-faults:{algorithm}",
            )
            if div is not None:
                _note(obs, "clean-vs-inactive-faults", div)
                return DiffOutcome(
                    "clean-vs-inactive-faults", div, f"{algorithm} diverged"
                )
    _note(obs, "clean-vs-inactive-faults", None)
    return DiffOutcome(
        "clean-vs-inactive-faults",
        None,
        f"inactive plan is a no-op for {', '.join(algorithms)}",
    )


# ----------------------------------------------------------------------
# distributed Borůvka vs centralized MST oracle
# ----------------------------------------------------------------------
def diff_boruvka_oracle(config: PaperConfig) -> DiffOutcome:
    """The distributed construction must equal the centralized MST.

    Shadowed link weights are distinct with probability 1, so the
    maximum spanning tree is unique and the distributed edge set must
    match the oracle's edge for edge.
    """
    obs = get_active() or Observability()
    pair = "boruvka-vs-oracle"
    with obs.span("conformance_diff", pair=pair):
        net = D2DNetwork(config)
        budget = net.sparse_budget
        dist = distributed_boruvka_csr(
            net.n, budget.link_indptr, budget.link_indices, budget.link_power_dbm
        )
        oracle = maximum_spanning_tree(net.weights, net.adjacency)
        dist_edges = sorted(
            (min(u, v), max(u, v)) for u, v in dist.edges
        )
        div = None
        for i, (got, want) in enumerate(zip(dist_edges, oracle)):
            if got != want:
                div = Divergence(
                    pair=pair,
                    kind="tree",
                    location=f"tree_edge[{i}]",
                    round=i,
                    expected=list(want),
                    actual=list(got),
                )
                break
        if div is None and len(dist_edges) != len(oracle):
            i = min(len(dist_edges), len(oracle))
            div = Divergence(
                pair=pair,
                kind="tree",
                location=f"tree_edge[{i}]",
                round=i,
                expected=list(oracle[i]) if i < len(oracle) else "<end>",
                actual=list(dist_edges[i]) if i < len(dist_edges) else "<end>",
            )
        if div is None:
            w_dist = tree_weight(net.weights, dist_edges)
            w_oracle = tree_weight(net.weights, oracle)
            if abs(w_dist - w_oracle) > 1e-9 * max(1.0, abs(w_oracle)):
                div = Divergence(
                    pair=pair,
                    kind="tree",
                    location="tree_weight",
                    expected=w_oracle,
                    actual=w_dist,
                )
        _note(obs, pair, div)
        detail = (
            f"{len(oracle)} oracle edges matched"
            if div is None
            else "distributed tree diverged from MST oracle"
        )
        return DiffOutcome(pair, div, detail)


# ----------------------------------------------------------------------
# sorted-FFA vs naive-FFA
# ----------------------------------------------------------------------
def diff_ffa(
    *,
    seed: int = 1,
    pop_size: int = 24,
    dim: int = 4,
    iterations: int = 40,
    objective: Callable = sphere,
    params: FAParams | None = None,
) -> DiffOutcome:
    """Sorted and naive FFA must stay inside the quality-parity band.

    Per-iteration invariant: both best-so-far histories are monotone
    non-increasing (first violating iteration is reported as the
    diverging round).  End-state: the sorted variant's best must lie
    within ``FFA_BAND_FACTOR ×`` the naive best (+ floor) and must have
    spent strictly fewer brightness comparisons.
    """
    obs = get_active() or Observability()
    pair = "sorted-vs-naive-ffa"
    with obs.span("conformance_diff", pair=pair):
        basic = BasicFireflyAlgorithm(
            objective, dim, pop_size, params=params,
            rng=np.random.default_rng(seed),
        ).run(iterations)
        fast = SortedFireflyAlgorithm(
            objective, dim, pop_size, params=params,
            rng=np.random.default_rng(seed),
        ).run(iterations)
        div = None
        for label, hist in (("naive", basic.history), ("sorted", fast.history)):
            for i in range(1, len(hist)):
                if hist[i] > hist[i - 1]:
                    div = Divergence(
                        pair=pair,
                        kind="history",
                        location=f"{label}_history[{i}]",
                        round=i,
                        expected=f"<= {hist[i - 1]!r}",
                        actual=hist[i],
                        context={"variant": label},
                    )
                    break
            if div is not None:
                break
        band = FFA_BAND_FACTOR * abs(basic.best_value) + FFA_BAND_ATOL
        if div is None and fast.best_value > basic.best_value + band:
            div = Divergence(
                pair=pair,
                kind="result",
                location="best_value",
                round=iterations,
                expected=f"<= {basic.best_value + band!r}",
                actual=fast.best_value,
                context={"naive_best": basic.best_value},
            )
        if div is None and fast.comparisons >= basic.comparisons:
            div = Divergence(
                pair=pair,
                kind="result",
                location="comparisons",
                expected=f"< {basic.comparisons}",
                actual=fast.comparisons,
            )
        _note(obs, pair, div)
        detail = (
            f"sorted {fast.comparisons} vs naive {basic.comparisons} "
            f"comparisons over {iterations} iterations"
        )
        return DiffOutcome(pair, div, detail)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def _run_faults(config: PaperConfig) -> DiffOutcome:
    return diff_fault_noop(config)


def _run_boruvka(config: PaperConfig) -> DiffOutcome:
    return diff_boruvka_oracle(config)


def _run_ffa(config: PaperConfig) -> DiffOutcome:
    return diff_ffa(seed=config.seed)


def _run_shard(config: PaperConfig) -> DiffOutcome:
    # lazy: repro.shard.conformance imports back into this package
    from repro.shard.conformance import diff_shard

    return diff_shard(config)


def _run_service(config: PaperConfig) -> DiffOutcome:
    # lazy: repro.service.conformance imports back into this package
    from repro.service.conformance import diff_service

    return diff_service(config)


def _run_service_ops(config: PaperConfig) -> DiffOutcome:
    # lazy: repro.service.conformance imports back into this package
    from repro.service.conformance import diff_service_ops

    return diff_service_ops(config)


#: Named pairs for the CLI (``repro conformance diff <pair>``).
DIFF_PAIRS: dict[str, Callable[[PaperConfig], DiffOutcome]] = {
    "faults": _run_faults,
    "boruvka": _run_boruvka,
    "ffa": _run_ffa,
    "shard": _run_shard,
    "service": _run_service,
    "service-ops": _run_service_ops,
}


def run_pairs(
    config: PaperConfig, names: tuple[str, ...] | None = None
) -> list[DiffOutcome]:
    """Run the named pairs (all when None) against one config."""
    outcomes = []
    for name in names or tuple(DIFF_PAIRS):
        if name not in DIFF_PAIRS:
            valid = ", ".join(sorted(DIFF_PAIRS))
            raise KeyError(f"unknown diff pair {name!r}; valid: {valid}, all")
        outcomes.append(DIFF_PAIRS[name](config))
    return outcomes
