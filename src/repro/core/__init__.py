"""Core library: configuration, network assembly and the two algorithms.

* :class:`~repro.core.config.PaperConfig` — Table I parameters + protocol
  knobs;
* :class:`~repro.core.network.D2DNetwork` — placement, channel, proximity
  graph and RSSI weights for one (config, seed);
* :class:`~repro.core.st.STSimulation` — the proposed tree-based
  distributed firefly algorithm (Algorithms 1–3);
* :class:`~repro.core.fst.FSTSimulation` — the FST baseline [17];
* :class:`~repro.core.pulsesync.SparsePulseSyncKernel` — the one
  vectorized pulse-coupled synchronization kernel, run over the link
  CSR by both algorithms and the mobility study.
"""

from repro.core.beacon import (
    BeaconResult,
    SparseBeaconDiscovery,
    top_k_required_csr,
)
from repro.core.churn import ChurnEvent, ChurnSession
from repro.core.config import PAPER_DENSITY_PER_M2, PaperConfig
from repro.core.fst import FSTSimulation
from repro.core.network import D2DNetwork
from repro.core.pulsesync import PulseSyncResult, SparsePulseSyncKernel
from repro.core.results import RunResult
from repro.core.st import STSimulation

__all__ = [
    "BeaconResult",
    "ChurnEvent",
    "ChurnSession",
    "D2DNetwork",
    "FSTSimulation",
    "PAPER_DENSITY_PER_M2",
    "PaperConfig",
    "PulseSyncResult",
    "RunResult",
    "STSimulation",
    "SparseBeaconDiscovery",
    "SparsePulseSyncKernel",
    "top_k_required_csr",
]
