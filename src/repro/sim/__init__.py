"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator`, :class:`Event`, :class:`Process`, :class:`Timeout`,
  :class:`Interrupt`, :func:`failure` — the kernel.
* :class:`Resource`, :class:`Store`, :class:`BandwidthLink`,
  :class:`TokenBucket` — contention primitives.
* :class:`RandomStream`, :class:`StreamFactory` — deterministic randomness.
* :mod:`repro.sim.units` — ns/byte unit helpers.
"""

from .._lazy import lazy_exports

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "failure",
    "RandomStream",
    "StreamFactory",
    "BandwidthLink",
    "Resource",
    "Store",
    "TokenBucket",
    "SeriesRecorder",
    "units",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "kernel": (
        "AllOf", "AnyOf", "Event", "Interrupt", "Process", "SimulationError",
        "Simulator", "Timeout", "failure",
    ),
    "random": ("RandomStream", "StreamFactory"),
    "resources": ("BandwidthLink", "Resource", "Store", "TokenBucket"),
    "tracing": ("SeriesRecorder",),
})
