"""Application substrates: the mini databases the paper's workloads drive."""

from .._lazy import lazy_exports

__all__ = ["minikv", "minisql", "Extent", "ExtentAllocator"]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "blockfs": ("Extent", "ExtentAllocator"),
})
