"""Byte pins of the network build's radio-graph CSR.

``sha256(indptr ‖ indices ‖ power_dbm)`` of ``D2DNetwork`` builds at
constant density, recorded before the block-enumerated, early-rejecting
link evaluator replaced the streamed candidate path; any change to the
build that moves a byte fails here.

The power values pass through ``log10``, ``log``, ``sqrt`` and ``cos``,
whose last-place rounding depends on the NumPy build and the CPU's SIMD
path.  The pins are therefore keyed by a digest of those kernels on a
fixed input (:func:`channel_probe`); on a platform whose kernels round
differently the pins cannot apply and the tests skip, naming the probe.

The n = 20 000 pin takes seconds, so it runs when ``REPRO_PIN_20K=1``
(CI's bench-smoke job sets it).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.radio.pathloss import PaperPathLoss
from repro.radio.shadowing import HashedShadowing

#: channel probe → {n: CSR digest}, all at seed 1 with keep_density.
#: Recorded on x86-64 (AVX-512) with NumPy 2.4.
PINS = {
    "ab2a2f258b3752135a1a8a832e83a1929ce398cac703f86f0c4da0b7f84a4223": {
        4096: "e91e4964368dbe3ad0a2480a8d859ec527d2a6234d512facda0c13dc5f29f89b",
        20000: "58c436a9c5db0a4f129dd4cb5ec43a4cc158da895ccd84903156c595fc645bf8",
    },
}


def channel_probe() -> str:
    """Digest of the path-loss and shadowing float kernels on fixed input."""
    d = np.linspace(0.05, 2000.0, 200_001)
    i = np.arange(200_001)
    h = hashlib.sha256()
    h.update(PaperPathLoss().loss_db(d).tobytes())
    h.update(HashedShadowing(10.0, key=1).link_db(i, i + 7).tobytes())
    return h.hexdigest()


def csr_digest(n: int) -> str:
    config = PaperConfig(seed=1).with_devices(n, keep_density=True)
    sb = D2DNetwork(config).sparse_budget
    h = hashlib.sha256()
    for a in (sb.indptr, sb.indices, sb.power_dbm):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _pin(n: int) -> str:
    probe = channel_probe()
    if probe not in PINS:
        pytest.skip(f"CSR pins were recorded with other float kernels ({probe})")
    return PINS[probe][n]


def test_csr_digest_n4096():
    assert csr_digest(4096) == _pin(4096)


@pytest.mark.skipif(
    os.environ.get("REPRO_PIN_20K") != "1",
    reason="set REPRO_PIN_20K=1 to run the n = 20 000 pin",
)
def test_csr_digest_n20000():
    assert csr_digest(20000) == _pin(20000)
