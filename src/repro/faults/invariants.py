"""Machine-checked protocol invariants.

Fault injection (:mod:`repro.faults.plan`) is only useful if degraded
runs can be *validated*: a run that survives a crash by producing a
cyclic "tree" or by double-billing repair messages is worse than one
that aborts.  :class:`InvariantChecker` encodes the properties every run
must preserve, faults or not:

* **phases** — every active oscillator phase lies in ``[0, 1)`` after
  each avalanche instant (devices whose clock is frozen by a stall are
  excluded while frozen);
* **tree** — the produced tree edges are acyclic and every edge is a
  real proximity-graph link;
* **fragments** — the Borůvka fragment count is monotone non-increasing
  across phases (absent churn), and consecutive phases agree on it;
* **message conservation** — the ``messages_total`` accounted through
  :meth:`repro.obs.Observability.account_messages` equals the
  :class:`~repro.core.results.RunResult` total (one accounting path).

Violations raise a structured :class:`InvariantViolation` carrying the
invariant name, the offending round index and a context dict — so a CI
failure names the exact round that went wrong.  ``corrupt_phase_round``
is a test-only hook that perturbs the *checked copy* of one round's
phases, proving end to end that a corrupted run is caught and named.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.spanningtree.unionfind import UnionFind


class InvariantViolation(RuntimeError):
    """A protocol invariant failed, with the offending round's trace."""

    def __init__(
        self,
        invariant: str,
        detail: str,
        *,
        round_index: int | None = None,
        context: dict | None = None,
    ) -> None:
        self.invariant = invariant
        self.round_index = round_index
        self.detail = detail
        self.context = dict(context or {})
        where = f" at round {round_index}" if round_index is not None else ""
        super().__init__(f"invariant {invariant!r} violated{where}: {detail}")


def network_edge_exists(network) -> Callable[[int, int], bool]:
    """Proximity-graph membership test that never densifies.

    Binary-searches the link CSR (rows are sorted by neighbour id).
    """
    sb = network.sparse_budget
    indptr = sb.link_indptr
    indices = sb.link_indices

    def exists(u: int, v: int) -> bool:
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        pos = lo + int(np.searchsorted(indices[lo:hi], v))
        return pos < hi and int(indices[pos]) == v

    return exists


class InvariantChecker:
    """Validates protocol invariants round by round.

    Parameters
    ----------
    corrupt_phase_round:
        TEST-ONLY: when set, the checked *copy* of that phase round is
        perturbed out of ``[0, 1)`` so the checker provably raises and
        names the round.  Production state is never touched.
    """

    def __init__(self, *, corrupt_phase_round: int | None = None) -> None:
        self.corrupt_phase_round = corrupt_phase_round
        self.rounds_checked = 0

    # ------------------------------------------------------------------
    def check_phases(
        self,
        t_ms: float,
        phases: np.ndarray,
        active: np.ndarray | None = None,
        *,
        atol: float = 0.0,
    ) -> None:
        """Every active phase must lie in ``[0, 1)`` at instant ``t_ms``.

        ``atol`` absorbs float round-off at the interval boundaries (the
        kernel computes raw phases from subtracted fire times, which can
        land a few ulps outside) without masking genuine corruption.
        """
        phases = np.asarray(phases, dtype=float)
        if active is not None:
            vals = phases[np.asarray(active, dtype=bool)].copy()
        else:
            vals = phases.copy()
        round_index = self.rounds_checked
        self.rounds_checked += 1
        if self.corrupt_phase_round == round_index and vals.size:
            vals[0] += 1.5  # test-only perturbation of the checked copy
        bad = ~np.isfinite(vals) | (vals < -atol) | (vals >= 1.0 + atol)
        if bad.any():
            worst = float(vals[bad][0])
            raise InvariantViolation(
                "phase_in_unit_interval",
                f"{int(bad.sum())} phase(s) outside [0, 1) at "
                f"t={t_ms:.3f} ms (first offender {worst:.6f})",
                round_index=round_index,
                context={"time_ms": float(t_ms), "offenders": int(bad.sum())},
            )

    # ------------------------------------------------------------------
    def check_tree(
        self,
        tree_edges: Iterable[tuple[int, int]],
        n: int,
        edge_exists: Callable[[int, int], bool] | None = None,
    ) -> None:
        """Tree edges must be valid, acyclic, and in the proximity graph."""
        uf = UnionFind(n)
        for idx, (u, v) in enumerate(tree_edges):
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvariantViolation(
                    "tree_edge_valid",
                    f"edge ({u}, {v}) is not a valid node pair for n={n}",
                    round_index=idx,
                )
            if edge_exists is not None and not edge_exists(u, v):
                raise InvariantViolation(
                    "tree_edge_in_graph",
                    f"edge ({u}, {v}) is not a proximity-graph link",
                    round_index=idx,
                )
            if not uf.union(u, v):
                raise InvariantViolation(
                    "tree_acyclic",
                    f"edge ({u}, {v}) closes a cycle",
                    round_index=idx,
                )

    # ------------------------------------------------------------------
    def check_fragments(self, phases: Sequence) -> None:
        """Fragment counts must be monotone non-increasing across phases."""
        prev_after: int | None = None
        for rec in phases:
            if rec.fragments_after > rec.fragments_before:
                raise InvariantViolation(
                    "fragments_monotone",
                    f"fragment count grew {rec.fragments_before} → "
                    f"{rec.fragments_after}",
                    round_index=rec.phase,
                )
            if prev_after is not None and rec.fragments_before != prev_after:
                raise InvariantViolation(
                    "fragments_continuous",
                    f"phase starts with {rec.fragments_before} fragments "
                    f"but the previous phase ended with {prev_after}",
                    round_index=rec.phase,
                )
            prev_after = rec.fragments_after

    # ------------------------------------------------------------------
    def check_message_conservation(self, result, snapshot: dict | None = None) -> None:
        """obs ``messages_total`` must equal ``RunResult.messages``."""
        snap = snapshot if snapshot is not None else result.metrics
        metric = (snap or {}).get("messages_total")
        if metric is None:
            raise InvariantViolation(
                "message_conservation",
                "no messages_total metric in the run's snapshot",
            )
        total = 0.0
        for sample in metric["samples"]:
            if sample["labels"].get("algorithm") == result.algorithm:
                total += sample["value"]
        if int(round(total)) != result.messages:
            raise InvariantViolation(
                "message_conservation",
                f"obs messages_total={int(round(total))} != "
                f"RunResult.messages={result.messages} "
                f"for algorithm {result.algorithm!r}",
                context={"obs_total": total, "result_total": result.messages},
            )

    # ------------------------------------------------------------------
    def check_result(self, result, network) -> None:
        """Full post-run bundle: tree validity + message conservation."""
        self.check_tree(
            result.tree_edges,
            network.n,
            edge_exists=network_edge_exists(network),
        )
        self.check_message_conservation(result)
