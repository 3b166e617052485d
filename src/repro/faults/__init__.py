"""Deterministic fault injection and protocol invariant checking.

* :class:`FaultConfig` — the fault-model parameters (loss probabilities,
  collision bursts, crash/stall schedules, clock drift), attachable to a
  :class:`~repro.core.config.PaperConfig` (``faults=...``) or parsed
  from a CLI spec string (``simulate --faults "crash=0.1,..."``).
* :class:`FaultPlan` — the materialized, counter-hashed decision
  source; every decision is a pure function of event identity.
* :class:`InvariantChecker` / :class:`InvariantViolation` — round-by-
  round validation that degraded runs still uphold the protocol's
  contracts (acyclic in-graph trees, monotone fragments, phases in
  [0, 1), message-accounting conservation).

See ``docs/robustness.md`` for the fault model and the reproducibility
guarantees.
"""

from repro.faults.invariants import (
    InvariantChecker,
    InvariantViolation,
    network_edge_exists,
)
from repro.faults.plan import FaultConfig, FaultPlan

__all__ = [
    "FaultConfig",
    "FaultPlan",
    "InvariantChecker",
    "InvariantViolation",
    "network_edge_exists",
]
