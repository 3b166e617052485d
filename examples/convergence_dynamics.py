#!/usr/bin/env python
"""Convergence dynamics — watch the firefly population lock step by step.

Runs the mesh pulse-coupled synchronization on a 100-device deployment
with telemetry sampling, then plots (in ASCII) the Kuramoto order
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
    result = kernel.run(
        np.random.default_rng(19), telemetry_interval_ms=25.0
    )
    print(
        f"{network.n} devices synchronized in {result.time_ms:.0f} ms "
        f"({result.fires} pulses, final spread {result.final_spread_ms:.1f} ms)\n"
    )

    r_series = [(s.time_ms, s.order_parameter) for s in result.telemetry]
    g_series = [(s.time_ms, float(s.sync_groups)) for s in result.telemetry]
    print(ascii_chart({"R": r_series}, title="Kuramoto order parameter vs time (ms)"))
    print()
    print(ascii_chart({"groups": g_series}, title="independent flashing groups vs time (ms)"))

    print("\nsampled trajectory:")
    print("    t(ms)   order R   groups   pulses")
    for s in result.telemetry:
        print(
            f"  {s.time_ms:7.0f}   {s.order_parameter:7.3f}   "
            f"{s.sync_groups:6d}   {s.fires_so_far:6d}"
        )


if __name__ == "__main__":
    main()
