"""Child-side tracers for the per-layer passes.

Each tracer is armed around the timed phase only (``start``/``stop``)
and never touches simulated state, so a traced run's simulated output
is byte-identical to an untraced one.  The two tracers run in separate
passes: counting kernel calls slows every call, which would skew the
sampled CPU shares.
"""

from __future__ import annotations

import signal
import sys
import time
from collections import Counter

from .layers import FileLayers

__all__ = ["NoTrace", "Sampler", "KernelCallCounter", "TRACERS",
           "SAMPLE_INTERVAL_S"]

#: CPU time between profile samples (the kernel rounds it up to its tick)
SAMPLE_INTERVAL_S = 0.001

#: the public kernel API whose calls the counting pass attributes
SIMULATOR_API = ("timeout", "spawn", "process", "event", "pooled_event",
                 "fired_event", "any_of", "all_of")
EVENT_API = ("succeed", "fail")


class NoTrace:
    """The untraced pass."""

    def __init__(self, layers: FileLayers):
        pass

    def install(self) -> None:
        pass

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def result(self) -> dict:
        return {}


class Sampler(NoTrace):
    """Host-CPU share per layer from an ``ITIMER_PROF`` stack sampler.

    Each sample goes to the innermost ``repro`` frame's layer, so time
    in the stdlib and in builtins counts toward the layer that called
    it; a sample with no ``repro`` frame counts as ``other``.
    """

    def __init__(self, layers: FileLayers):
        self._layers = layers
        self.counts: Counter = Counter()
        #: host seconds spent inside the handler: the sampler's cost
        self.handler_s = 0.0

    def _on_sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.counts[self._layers.innermost(frame) or "other"] += 1
        self.handler_s += time.perf_counter() - entered

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # a signal already in flight must not kill the process
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def result(self) -> dict:
        return {"samples": dict(sorted(self.counts.items())),
                "sampler_s": self.handler_s}


class KernelCallCounter(NoTrace):
    """Exact calls into the public kernel API, by calling layer.

    ``install`` wraps the API methods on the ``Simulator`` and
    ``Event`` classes; it must run before any world is built so that
    bound methods cached by components resolve to the wrappers.  Calls
    whose innermost ``repro`` caller is the kernel itself are not
    counted.
    """

    def __init__(self, layers: FileLayers):
        self._layers = layers
        self.calls: Counter = Counter()
        self.active = False

    def install(self) -> None:
        from repro.sim.kernel import Event, Simulator

        for cls, names in ((Simulator, SIMULATOR_API), (Event, EVENT_API)):
            for name in names:
                setattr(cls, name, self._counted(getattr(cls, name), name))

    def _counted(self, fn, api: str):
        calls, innermost = self.calls, self._layers.innermost

        def counted(*args, **kwargs):
            if self.active:
                layer = innermost(sys._getframe(1)) or "other"
                if layer != "sim.kernel":
                    calls[layer, api] += 1
            return fn(*args, **kwargs)

        return counted

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def result(self) -> dict:
        matrix: dict[str, dict[str, int]] = {}
        for (layer, api), n in sorted(self.calls.items()):
            matrix.setdefault(layer, {})[api] = n
        return {"kernel_calls": matrix}


#: pass name -> tracer class
TRACERS = {"plain": NoTrace, "sample": Sampler, "count": KernelCallCounter}
