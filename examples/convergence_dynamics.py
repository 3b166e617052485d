#!/usr/bin/env python
"""Convergence dynamics — watch the firefly population lock step by step.

Runs the mesh pulse-coupled synchronization on a 100-device deployment,
sampling the phases every 25 ms through the kernel's ``phase_hook``,
then plots (in ASCII) the Kuramoto order
parameter climbing to 1 and the number of independent flashing groups
collapsing to a single group — the §III dynamics behind every headline
number in Figs. 3–4.

Run:  python examples/convergence_dynamics.py
"""

import numpy as np

from repro import D2DNetwork, PaperConfig
from repro.analysis.ascii_plot import ascii_chart
from repro.core.pulsesync import SparsePulseSyncKernel
from repro.oscillator.prc import LinearPRC
from repro.oscillator.sync_metrics import count_sync_groups, order_parameter

#: Simulated time between trajectory samples (ms).
SAMPLE_INTERVAL_MS = 25.0


def main() -> None:
    config = PaperConfig(seed=19).with_devices(100, keep_density=False)
    network = D2DNetwork(config)
    budget = network.sparse_budget
    kernel = SparsePulseSyncKernel(
        budget.link_indptr,
        budget.link_indices,
        budget.link_power_dbm,
        LinearPRC.from_dissipation(config.dissipation, config.epsilon),
        period_ms=config.period_ms,
        threshold_dbm=config.threshold_dbm,
        refractory_ms=config.refractory_ms,
        sync_window_ms=config.sync_window_ms,
        fading=budget.fading,
    )
    samples = []  # (time_ms, order parameter, groups, instant)
    next_sample = SAMPLE_INTERVAL_MS

    def sample(instant: int, time_ms: float, phases: np.ndarray) -> None:
        nonlocal next_sample
        if time_ms < next_sample:
            return
        vals = np.clip(phases[~np.isnan(phases)], 0.0, 1.0)
        samples.append(
            (time_ms, order_parameter(vals), count_sync_groups(vals), instant)
        )
        next_sample = time_ms + SAMPLE_INTERVAL_MS

    result = kernel.run(np.random.default_rng(19), phase_hook=sample)
    print(
        f"{network.n} devices synchronized in {result.time_ms:.0f} ms "
        f"({result.fires} pulses, final spread {result.final_spread_ms:.1f} ms)\n"
    )

    r_series = [(t, r) for t, r, _, _ in samples]
    g_series = [(t, float(groups)) for t, _, groups, _ in samples]
    print(ascii_chart({"R": r_series}, title="Kuramoto order parameter vs time (ms)"))
    print()
    print(ascii_chart({"groups": g_series}, title="independent flashing groups vs time (ms)"))

    print("\nsampled trajectory:")
    print("    t(ms)   order R   groups   instant")
    for t, r, groups, instant in samples:
        print(f"  {t:7.0f}   {r:7.3f}   {groups:6d}   {instant:7d}")


if __name__ == "__main__":
    main()
