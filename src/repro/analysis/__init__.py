"""Result analysis: latency statistics, fairness, TCO model."""

from .._lazy import lazy_exports

__all__ = ["LatencyStats", "fairness_index", "percentile", "ascii_bar_chart", "render_markdown"]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "metrics": ("LatencyStats", "fairness_index", "percentile"),
    "report": ("ascii_bar_chart", "render_markdown"),
})
