"""Micro-benchmarks of the hot kernels (real repeated timing).

Unlike the figure benches (single-shot ``pedantic`` regenerations), these
use pytest-benchmark's statistical timing to track the performance of the
two inner loops everything else stands on: the pulse-sync kernel and the
beacon-discovery cohort loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import benchmark_mean_s, write_bench_json
from repro.core.beacon import SparseBeaconDiscovery, top_k_required_csr
from repro.core.config import PaperConfig
from repro.core.network import D2DNetwork
from repro.core.pulsesync import SparsePulseSyncKernel
from repro.oscillator.prc import LinearPRC


@pytest.fixture(scope="module")
def network() -> D2DNetwork:
    return D2DNetwork(PaperConfig(seed=2).with_devices(150, keep_density=False))


def test_bench_pulse_sync_kernel(benchmark, network, bench_json_dir):
    cfg = network.config
    budget = network.sparse_budget
    kernel = SparsePulseSyncKernel(
        budget.link_indptr,
        budget.link_indices,
        budget.link_power_dbm,
        LinearPRC.from_dissipation(cfg.dissipation, cfg.epsilon),
        period_ms=cfg.period_ms,
        threshold_dbm=cfg.threshold_dbm,
        refractory_ms=cfg.refractory_ms,
        sync_window_ms=cfg.sync_window_ms,
        fading=budget.fading,
    )

    def run():
        return kernel.run(np.random.default_rng(4), max_time_ms=60_000.0)

    result = benchmark(run)
    assert result.converged
    write_bench_json(
        bench_json_dir,
        "kernel_pulse_sync",
        benchmark_mean_s(benchmark),
        {
            "messages": result.messages,
            "time_ms": result.time_ms,
            "converged": result.converged,
        },
    )


def test_bench_beacon_discovery(benchmark, network, bench_json_dir):
    cfg = network.config
    disc = SparseBeaconDiscovery(
        network.sparse_budget,
        threshold_dbm=cfg.threshold_dbm,
        period_slots=cfg.period_slots,
        slot_ms=cfg.slot_ms,
        preambles=cfg.beacon_preambles,
    )
    required = top_k_required_csr(network.sparse_budget, k=1)

    def run():
        return disc.run(np.random.default_rng(4), required, max_periods=500)

    result = benchmark(run)
    assert result.complete
    write_bench_json(
        bench_json_dir,
        "kernel_beacon_discovery",
        benchmark_mean_s(benchmark),
        {
            "messages": result.messages,
            "periods": result.periods,
            "complete": result.complete,
        },
    )


def test_bench_network_build(benchmark, bench_json_dir):
    def build():
        return D2DNetwork(PaperConfig(seed=3).with_devices(200, keep_density=False))

    net = benchmark(build)
    assert net.n == 200
    write_bench_json(
        bench_json_dir,
        "kernel_network_build",
        benchmark_mean_s(benchmark),
        {"devices": net.n},
    )
