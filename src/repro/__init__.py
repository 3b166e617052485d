"""repro — Firefly-inspired improved distributed proximity algorithm for D2D.

Reproduction of Pratap & Misra, *"Firefly inspired Improved Distributed
Proximity Algorithm for D2D Communication"*, IEEE IPDPSW 2015
(DOI 10.1109/IPDPSW.2015.64).

Quickstart
----------
>>> from repro import PaperConfig, D2DNetwork, STSimulation, FSTSimulation
>>> config = PaperConfig()              # Table I defaults: 50 UEs, 100x100 m
>>> net = D2DNetwork(config)
>>> st = STSimulation(net).run()        # proposed tree-based algorithm
>>> fst = FSTSimulation(net).run()      # mesh firefly baseline [17]
>>> st.converged and fst.converged
True

See ``examples/`` for full scenarios and ``benchmarks/`` for the scripts
that regenerate every table and figure of the paper's evaluation.
"""

from repro.core import (
    ChurnEvent,
    ChurnSession,
    D2DNetwork,
    FSTSimulation,
    PaperConfig,
    PulseSyncResult,
    RunResult,
    SparseBeaconDiscovery,
    STSimulation,
)

__version__ = "1.0.0"

__all__ = [
    "ChurnEvent",
    "ChurnSession",
    "D2DNetwork",
    "FSTSimulation",
    "PaperConfig",
    "PulseSyncResult",
    "RunResult",
    "STSimulation",
    "SparseBeaconDiscovery",
    "__version__",
]
