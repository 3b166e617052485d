"""Metamorphic relation registry.

A metamorphic relation transforms a run's *input* in a way whose effect
on the *output* is known a priori, then checks the implementation honors
it — no oracle needed.  Each relation here takes a
:class:`~repro.core.config.PaperConfig` and returns ``None`` (holds) or
a :class:`~repro.conformance.report.Divergence` naming the first point
where it broke.

Registered relations:

``node_relabeling``
    Permuting node labels permutes the spanning tree: Borůvka and GHS
    on a relabelled weight matrix must return the isomorphic edge set
    with identical total weight and per-kind message counts.
``seed_translation``
    Structure-only outputs (bill kinds, event categories, convergence,
    tree size) must not depend on which seed drew the deployment.
``ps_weight_monotonicity``
    Co-shifting ``tx_power_dbm`` and ``threshold_dbm`` by +δ shifts
    every link weight by δ while leaving adjacency untouched — the tree
    edges must be unchanged and the tree weight must move by exactly
    (|edges|)·δ.
``fault_inactivity``
    An all-zero fault plan must be a bitwise no-op (delegates to the
    clean-vs-inactive differential runner).

The registry is consumed both by ``pytest`` parametrizations
(``tests/test_conformance_metamorphic.py``) and by the
``repro conformance run`` CLI.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.conformance.differential import diff_fault_noop
from repro.conformance.golden import capture_run
from repro.conformance.report import Divergence
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.obs import Observability, get_active
from repro.spanningtree.boruvka import distributed_boruvka
from repro.spanningtree.ghs import distributed_ghs
from repro.spanningtree.mst import maximum_spanning_tree, tree_weight

RelationFn = Callable[[PaperConfig], "Divergence | None"]

#: Seed offset used by the seed-translation relation.
SEED_SHIFT = 1000

#: dB co-shift applied by the monotonicity relation.
POWER_SHIFT_DB = 7.0


def _sorted_edges(edges) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in edges)


# ----------------------------------------------------------------------
# node relabeling — permutation equivariance of the tree constructions
# ----------------------------------------------------------------------
def relation_node_relabeling(config: PaperConfig) -> Divergence | None:
    """π(tree(W)) == tree(π(W)) for Borůvka and GHS.

    The permutation is drawn deterministically from the config seed; the
    relabelled run must produce the isomorphic edge set, the same total
    weight and the same per-kind message bill (degree sequences and
    fragment structure are label-independent).
    """
    pair = "metamorphic:node_relabeling"
    net = D2DNetwork(config)
    w, adj = net.weights, net.adjacency
    n = net.n
    perm = np.random.default_rng(config.seed + 7919).permutation(n)
    w_p = w[np.ix_(perm, perm)]
    adj_p = adj[np.ix_(perm, perm)]
    for label, run in (
        ("boruvka", lambda m, a: distributed_boruvka(m, a)),
        ("ghs", lambda m, a: distributed_ghs(m, a)),
    ):
        base = run(w, adj)
        rel = run(w_p, adj_p)
        base_edges = _sorted_edges(base.edges)
        # edge (i, j) in the relabelled graph is (perm[i], perm[j]) here
        mapped = _sorted_edges((perm[u], perm[v]) for u, v in rel.edges)
        if mapped != base_edges:
            i = next(
                (
                    k
                    for k, (x, y) in enumerate(zip(base_edges, mapped))
                    if x != y
                ),
                min(len(base_edges), len(mapped)),
            )
            return Divergence(
                pair=pair,
                kind="tree",
                location=f"{label}.tree_edge[{i}]",
                round=i,
                expected=base_edges[i] if i < len(base_edges) else "<end>",
                actual=mapped[i] if i < len(mapped) else "<end>",
                context={"algorithm": label},
            )
        w_base = tree_weight(w, base_edges)
        w_rel = tree_weight(w_p, rel.edges)
        if abs(w_base - w_rel) > 1e-9 * max(1.0, abs(w_base)):
            return Divergence(
                pair=pair,
                kind="tree",
                location=f"{label}.tree_weight",
                expected=w_base,
                actual=w_rel,
                context={"algorithm": label},
            )
        # Borůvka's bill is per-kind label-invariant.  GHS is not even
        # total-invariant: which fragment initiates a connect and how
        # many waiting rounds elapse are label-order choices, so for GHS
        # the relation covers the tree and its weight only.
        if label == "boruvka" and base.counter.as_dict() != rel.counter.as_dict():
            return Divergence(
                pair=pair,
                kind="bill",
                location=f"{label}.messages",
                expected=base.counter.as_dict(),
                actual=rel.counter.as_dict(),
                context={"algorithm": label},
            )
    return None


# ----------------------------------------------------------------------
# seed translation — structure-only outputs are seed-independent
# ----------------------------------------------------------------------
def _structure(doc: dict[str, Any]) -> dict[str, Any]:
    """The structural skeleton of a capture doc (values, not streams)."""
    result = doc.get("result", {})
    skeleton: dict[str, Any] = {
        "bill_kinds": sorted(doc.get("bill", {})),
        "event_categories": sorted(doc.get("event_counts", {})),
        "converged": result.get("converged"),
        "result_keys": sorted(result),
    }
    if "tree_edges" in result:
        skeleton["tree_size"] = len(result["tree_edges"])
    return skeleton


def relation_seed_translation(config: PaperConfig) -> Divergence | None:
    """Shifting the seed redraws the deployment, not the structure.

    Convergence, the set of billed message kinds, the set of traced
    event categories and the tree size (n-1 for a converged run) are
    functions of the algorithm and topology regime, not of which seed
    happened to draw the positions.
    """
    pair = "metamorphic:seed_translation"
    shifted = config.replace(seed=config.seed + SEED_SHIFT)
    for algorithm in ("st", "fst"):
        a = _structure(capture_run(config, algorithm).doc())
        b = _structure(capture_run(shifted, algorithm).doc())
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                return Divergence(
                    pair=pair,
                    kind="result",
                    location=f"{algorithm}.{key}",
                    expected=a.get(key, "<missing>"),
                    actual=b.get(key, "<missing>"),
                    context={"seed": config.seed, "shifted_seed": shifted.seed},
                )
    return None


# ----------------------------------------------------------------------
# PS-weight monotonicity — dB co-shift moves weights, not structure
# ----------------------------------------------------------------------
def relation_ps_weight_monotonicity(config: PaperConfig) -> Divergence | None:
    """+δ on tx power and threshold shifts every weight by exactly δ.

    The link margin ``rx - threshold`` is invariant under the co-shift,
    so adjacency and the (unique) maximum spanning tree's edge set must
    be unchanged while the tree weight moves by |edges|·δ — the
    monotone response the PS weighting promises under a uniform gain
    change.
    """
    pair = "metamorphic:ps_weight_monotonicity"
    delta = POWER_SHIFT_DB
    base_net = D2DNetwork(config)
    shifted_net = D2DNetwork(
        config.replace(
            tx_power_dbm=config.tx_power_dbm + delta,
            threshold_dbm=config.threshold_dbm + delta,
        )
    )
    if not np.array_equal(base_net.adjacency, shifted_net.adjacency):
        diff = np.argwhere(base_net.adjacency != shifted_net.adjacency)
        u, v = (int(x) for x in diff[0])
        return Divergence(
            pair=pair,
            kind="tree",
            location=f"adjacency[{u},{v}]",
            expected=bool(base_net.adjacency[u, v]),
            actual=bool(shifted_net.adjacency[u, v]),
            context={"delta_db": delta},
        )
    base_tree = maximum_spanning_tree(base_net.weights, base_net.adjacency)
    shifted_tree = maximum_spanning_tree(
        shifted_net.weights, shifted_net.adjacency
    )
    if base_tree != shifted_tree:
        i = next(
            (k for k, (x, y) in enumerate(zip(base_tree, shifted_tree)) if x != y),
            min(len(base_tree), len(shifted_tree)),
        )
        return Divergence(
            pair=pair,
            kind="tree",
            location=f"tree_edge[{i}]",
            round=i,
            expected=base_tree[i] if i < len(base_tree) else "<end>",
            actual=shifted_tree[i] if i < len(shifted_tree) else "<end>",
            context={"delta_db": delta},
        )
    w_base = tree_weight(base_net.weights, base_tree)
    w_shift = tree_weight(shifted_net.weights, shifted_tree)
    expected = w_base + len(base_tree) * delta
    if abs(w_shift - expected) > 1e-6 * max(1.0, abs(expected)):
        return Divergence(
            pair=pair,
            kind="tree",
            location="tree_weight",
            expected=expected,
            actual=w_shift,
            context={"delta_db": delta, "edges": len(base_tree)},
        )
    return None


# ----------------------------------------------------------------------
# delegated relations
# ----------------------------------------------------------------------
def relation_fault_inactivity(config: PaperConfig) -> Divergence | None:
    """An inactive fault plan perturbs nothing (bitwise)."""
    return diff_fault_noop(config).divergence


#: Name → relation; consumed by pytest parametrization and the CLI.
METAMORPHIC_RELATIONS: dict[str, RelationFn] = {
    "node_relabeling": relation_node_relabeling,
    "seed_translation": relation_seed_translation,
    "ps_weight_monotonicity": relation_ps_weight_monotonicity,
    "fault_inactivity": relation_fault_inactivity,
}


def run_relations(
    config: PaperConfig, names: tuple[str, ...] | None = None
) -> list[tuple[str, Divergence | None]]:
    """Evaluate the named relations (all when None) against one config."""
    obs = get_active() or Observability()
    outcomes: list[tuple[str, Divergence | None]] = []
    for name in names or tuple(METAMORPHIC_RELATIONS):
        if name not in METAMORPHIC_RELATIONS:
            valid = ", ".join(sorted(METAMORPHIC_RELATIONS))
            raise KeyError(f"unknown relation {name!r}; valid: {valid}, all")
        with obs.span("conformance_relation", relation=name):
            div = METAMORPHIC_RELATIONS[name](config)
        obs.metrics.counter(
            "conformance_checks_total",
            help="paired-pipeline and golden-replay conformance checks",
            unit="checks",
        ).inc(
            pair=f"metamorphic:{name}",
            outcome="diverged" if div is not None else "ok",
        )
        if div is not None:
            obs.metrics.counter(
                "conformance_divergences_total",
                help="conformance checks whose pipelines disagreed",
                unit="divergences",
            ).inc(pair=f"metamorphic:{name}", kind=div.kind)
        outcomes.append((name, div))
    return outcomes
