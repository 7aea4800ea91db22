"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator`, :class:`Event`, :class:`Process`, :class:`Timeout`,
  :class:`Interrupt` — the kernel.
* :class:`Resource`, :class:`Store`, :class:`BandwidthLink`,
  :class:`TokenBucket` — contention primitives.
* :class:`RandomStream`, :class:`StreamFactory` — deterministic randomness.
* :mod:`repro.sim.units` — ns/byte unit helpers.
"""

from .kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .random import RandomStream, StreamFactory
from .resources import BandwidthLink, Resource, Store, TokenBucket
from .tracing import SeriesRecorder
from . import units

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "RandomStream",
    "StreamFactory",
    "BandwidthLink",
    "Resource",
    "Store",
    "TokenBucket",
    "SeriesRecorder",
    "units",
]
