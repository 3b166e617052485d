"""Mobility session: how synchronization and the tree survive motion.

The session starts from a synchronized, tree-organized network.  Each
epoch the devices move (any mobility model with ``positions`` and a step
method), the channel is rebuilt at the new geometry, and the network
re-synchronizes over the *new* maximum-PS spanning tree.  Per-epoch
records capture the re-sync cost (time, messages), how much of the old
tree survived, and the current phase coherence — the quantities a
"realistic scenario" extension of the paper (its §VI) would plot.

Each epoch runs the simulation path ST runs: a CSR
:class:`~repro.radio.sparse_link.SparseLinkBudget` built by
:func:`~repro.core.network.channel_budget`, CSR Borůvka for the tree and
the pulse-sync kernel over the tree edges
(:func:`~repro.core.st.tree_sync_kernel`).  Shadowing is keyed once per
session, so the environment stays frozen while devices walk; fading is
keyed per epoch from ``(seed, epoch)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import PaperConfig
from repro.core.network import channel_budget
from repro.core.st import tree_sync_kernel
from repro.oscillator.prc import LinearPRC
from repro.radio.chanhash import derive_key
from repro.radio.sparse_link import SparseLinkBudget
from repro.spanningtree.boruvka import distributed_boruvka_csr


@dataclass(frozen=True)
class MobilityEpoch:
    """One epoch's outcome."""

    epoch: int
    resync_time_ms: float
    resync_messages: int
    converged: bool
    #: fraction of the previous epoch's tree edges still in the new tree
    tree_stability: float
    mean_tree_edge_m: float


class MobilitySession:
    """Move → rebuild channel → re-tree → re-sync, epoch by epoch.

    Parameters
    ----------
    config:
        Scenario parameters (the mobility area is ``config.area_side_m``).
    mover:
        Object exposing ``positions`` (``(n, 2)`` array) that the caller
        advances between :meth:`run_epoch` calls.
    seed:
        Seed for the channel keys and the per-epoch phase draws.

    Attributes
    ----------
    budget:
        The link budget of the latest epoch (``None`` before the first).
    tree:
        The latest epoch's spanning-tree edges.
    """

    def __init__(
        self, config: PaperConfig, mover, *, seed: int = 0
    ) -> None:
        self.config = config
        self.mover = mover
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)
        self.prc = LinearPRC.from_dissipation(config.dissipation, config.epsilon)
        self.epochs: list[MobilityEpoch] = []
        self.budget: SparseLinkBudget | None = None
        self.tree: list[tuple[int, int]] = []
        # one shadowing key per session: buildings don't reshuffle when
        # devices walk, so tree churn measures *geometry* change, not
        # channel re-rolls
        self._shadow_key = int(self.rng.integers(0, 2**63))

    def run_epoch(self) -> MobilityEpoch:
        """Rebuild the channel at current positions, re-tree, re-sync."""
        cfg = self.config
        n = cfg.n_devices
        epoch = len(self.epochs)
        positions = np.array(self.mover.positions, dtype=float)
        fading_key = int(derive_key(self.seed, np.uint64(epoch)))
        budget = channel_budget(cfg, positions, self._shadow_key, fading_key)

        tree = distributed_boruvka_csr(
            n, budget.link_indptr, budget.link_indices, budget.link_power_dbm
        ).edges
        if self.tree:
            prev = set(self.tree)
            stability = len(prev.intersection(tree)) / max(len(prev), 1)
        else:
            stability = 1.0
        self.budget = budget
        self.tree = tree

        kernel = tree_sync_kernel(cfg, budget, tree, self.prc)
        # devices kept their clocks through the move: phases start nearly
        # aligned, perturbed by the inter-epoch drift (a few slots)
        base = float(self.rng.uniform(0.0, 0.9))
        jitter = self.rng.uniform(0.0, 0.05, size=n)
        sync = kernel.run(
            self.rng,
            initial_phases=np.clip(base + jitter, 0.0, 1.0 - 1e-9),
            max_time_ms=cfg.max_time_ms,
        )

        ends = np.array(tree, dtype=np.int64).reshape(-1, 2)
        lengths = np.linalg.norm(positions[ends[:, 0]] - positions[ends[:, 1]], axis=1)
        record = MobilityEpoch(
            epoch=epoch,
            resync_time_ms=sync.time_ms,
            resync_messages=sync.messages,
            converged=sync.converged,
            tree_stability=stability,
            mean_tree_edge_m=float(lengths.mean()) if tree else 0.0,
        )
        self.epochs.append(record)
        return record
