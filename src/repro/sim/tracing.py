"""Windowed time series for simulation runs.

A :class:`SeriesRecorder` bins a counter into fixed windows to produce
time series (used e.g. for the hot-upgrade IOPS timeline of Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .kernel import Simulator

__all__ = ["SeriesRecorder"]


@dataclass
class SeriesRecorder:
    """Bins occurrences into fixed time windows.

    ``tick()`` adds one occurrence (optionally weighted) at the current
    simulated time.  ``series()`` returns per-window rates.
    """

    sim: Simulator
    window_ns: int
    _bins: dict[int, float] = field(default_factory=dict)

    def tick(self, weight: float = 1.0) -> None:
        idx = self.sim.now // self.window_ns
        self._bins[idx] = self._bins.get(idx, 0.0) + weight

    def series(self, start_ns: int = 0, end_ns: Optional[int] = None) -> list[tuple[int, float]]:
        """[(window_start_ns, rate_per_sec), ...] covering the range."""
        end = end_ns if end_ns is not None else self.sim.now
        first = start_ns // self.window_ns
        last = max(first, (end - 1) // self.window_ns) if end > start_ns else first
        out = []
        for idx in range(first, last + 1):
            count = self._bins.get(idx, 0.0)
            out.append((idx * self.window_ns, count * 1e9 / self.window_ns))
        return out

    def total(self) -> float:
        return sum(self._bins.values())
