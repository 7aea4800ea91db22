"""Layer names for per-layer metrics, derived from ``src/repro`` modules.

A layer is a ``repro`` module path with the ``repro.`` prefix dropped
(``repro.core.engine`` -> ``core.engine``).  Modules without a layer of
their own roll up into ``<pkg>.other`` where that layer is declared,
else into ``other``.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["HOST_SHARE_LAYERS", "SCHEDULING_LAYERS", "layer_of_module",
           "FileLayers"]

#: every layer a host-CPU sample can land in; the shares sum to 1
HOST_SHARE_LAYERS = (
    "sim.kernel", "sim.resources", "sim.other",
    "workloads", "apps.minikv",
    "host.driver", "host.memory", "host.other",
    "pcie",
    "core.sriov_layer", "core.target_controller", "core.engine",
    "core.lba_mapping", "core.qos", "core.host_adaptor",
    "core.dma_routing", "core.other",
    "push",
    "nvme.ssd", "nvme.queues", "nvme.command", "nvme.prp", "nvme.flash",
    "nvme.other",
    "obs",
    "other",
)

#: layers that schedule simulator work, reported as kernel calls per op
SCHEDULING_LAYERS = (
    "sim.resources", "pcie",
    "core.engine", "core.sriov_layer", "core.target_controller",
    "core.host_adaptor", "core.dma_routing", "core.qos",
    "host.driver", "nvme.ssd", "nvme.flash", "push", "apps.minikv",
    "workloads",
)

#: packages that are one layer as a whole
_WHOLE_PACKAGES = ("pcie", "push", "obs", "workloads")


def layer_of_module(module: str) -> str:
    """The layer of a dotted module name (``repro.nvme.prp`` -> ``nvme.prp``)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    pkg = parts[1]
    if pkg in _WHOLE_PACKAGES:
        return pkg
    if pkg == "apps":
        return "apps.minikv" if parts[2:3] == ["minikv"] else "other"
    if f"{pkg}.other" in HOST_SHARE_LAYERS:
        name = f"{pkg}.{parts[2]}" if len(parts) > 2 else ""
        return name if name in HOST_SHARE_LAYERS else f"{pkg}.other"
    return "other"


class FileLayers:
    """Maps a code object's file name to its layer, with a cache.

    ``layer(filename)`` is None for files outside ``<src>/repro``
    (stdlib, the benchmark itself), so callers can walk outward to the
    innermost ``repro`` frame.
    """

    def __init__(self, src_dir: str):
        self._prefix = os.path.join(os.path.abspath(src_dir), "")
        self._cache: dict[str, Optional[str]] = {}

    def layer(self, filename: str) -> Optional[str]:
        try:
            return self._cache[filename]
        except KeyError:
            pass
        layer = None
        if filename.startswith(self._prefix) and filename.endswith(".py"):
            rel = filename[len(self._prefix):-3]
            parts = rel.split(os.sep)
            if parts[0] == "repro":
                if parts[-1] == "__init__":
                    parts.pop()
                layer = layer_of_module(".".join(parts))
        self._cache[filename] = layer
        return layer

    def innermost(self, frame) -> Optional[str]:
        """Layer of the innermost ``repro`` frame at or above ``frame``."""
        layer_of = self.layer
        while frame is not None:
            layer = layer_of(frame.f_code.co_filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return None
