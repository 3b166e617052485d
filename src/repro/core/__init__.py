"""Core library: configuration, network assembly and the two algorithms.

* :class:`~repro.core.config.PaperConfig` — Table I parameters + protocol
  knobs;
* :class:`~repro.core.network.D2DNetwork` — placement, channel, proximity
  graph and RSSI weights for one (config, seed);
* :class:`~repro.core.st.STSimulation` — the proposed tree-based
  distributed firefly algorithm (Algorithms 1–3);
* :class:`~repro.core.fst.FSTSimulation` — the FST baseline [17];
* :class:`~repro.core.pulsesync.SparsePulseSyncKernel` — the shared
  vectorized pulse-coupled synchronization kernel over the link CSR
  (:class:`~repro.core.pulsesync.PulseSyncKernel` is its dense-matrix
  twin for stream fading).
"""

from repro.core.beacon import (
    BeaconResult,
    SparseBeaconDiscovery,
    top_k_required_csr,
)
from repro.core.churn import ChurnEvent, ChurnSession
from repro.core.config import PAPER_DENSITY_PER_M2, PaperConfig
from repro.core.device import Device, make_devices
from repro.core.fst import (
    FSTSimulation,
    heavy_edge_forest_csr,
    stitch_forest_csr,
)
from repro.core.network import D2DNetwork
from repro.core.pulsesync import (
    PulseSyncKernel,
    PulseSyncResult,
    SparsePulseSyncKernel,
    TelemetrySample,
)
from repro.core.results import RunResult
from repro.core.st import STSimulation

__all__ = [
    "BeaconResult",
    "ChurnEvent",
    "ChurnSession",
    "D2DNetwork",
    "Device",
    "FSTSimulation",
    "PAPER_DENSITY_PER_M2",
    "PaperConfig",
    "PulseSyncKernel",
    "PulseSyncResult",
    "RunResult",
    "STSimulation",
    "SparseBeaconDiscovery",
    "SparsePulseSyncKernel",
    "TelemetrySample",
    "heavy_edge_forest_csr",
    "make_devices",
    "stitch_forest_csr",
    "top_k_required_csr",
]
