"""Periodic protocol probes — sampled observables along a run.

A probe is a named time series of numeric observations taken at least
:data:`PROBE_INTERVAL_MS` of simulated time apart: sync-error spread
during a pulse-coupled run, fragment sizes per Borůvka phase,
neighbour-table fill during discovery.  The protocol loop calls
:meth:`ProbeSet.record` with values it already has in hand (the common
case inside vectorized kernels); ``record`` honours the interval, so a
hot loop can call it every instant and still produce a bounded series.

Time is *simulated* milliseconds, so probe series are deterministic for
a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Spacing between samples of one probe (simulated ms).
PROBE_INTERVAL_MS = 1_000.0


@dataclass(frozen=True)
class ProbeSample:
    """One observation of one probe."""

    time_ms: float
    probe: str
    values: dict[str, float]

    def __getitem__(self, key: str) -> float:
        return self.values[key]


class ProbeSet:
    """Named probes sampled on a simulated-time schedule."""

    def __init__(self) -> None:
        self.samples: list[ProbeSample] = []
        self._next_due: dict[str, float] = {}

    # ------------------------------------------------------------------
    def due(self, name: str, time_ms: float) -> bool:
        return time_ms >= self._next_due.get(name, -float("inf"))

    def record(
        self, time_ms: float, probe: str, *, force: bool = False, **values: float
    ) -> bool:
        """Push one observation; dropped when the probe is not yet due.

        Returns True when the sample was kept.  ``force=True`` bypasses
        the interval (e.g. a final end-of-run sample).
        """
        if not force and not self.due(probe, time_ms):
            return False
        self.samples.append(
            ProbeSample(time_ms, probe, {k: float(v) for k, v in values.items()})
        )
        self._next_due[probe] = time_ms + PROBE_INTERVAL_MS
        return True

    # ------------------------------------------------------------------
    def series(self, probe: str, key: str) -> list[tuple[float, float]]:
        """``(time_ms, value)`` pairs of one probe's named value."""
        return [
            (s.time_ms, s.values[key])
            for s in self.samples
            if s.probe == probe and key in s.values
        ]

    def probes(self) -> list[str]:
        return sorted({s.probe for s in self.samples})

    def __len__(self) -> int:
        return len(self.samples)

    def clear(self) -> None:
        self.samples.clear()
        self._next_due.clear()

    def to_dicts(self) -> list[dict[str, Any]]:
        return [
            {"time_ms": s.time_ms, "probe": s.probe, **s.values}
            for s in self.samples
        ]
