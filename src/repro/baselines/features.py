"""Feature matrix of local-storage schemes — paper Table I.

Each column is a property of :class:`~repro.baselines.registry.SchemeDef`
derived from the scheme's structural inputs (host cores, driver and
device requirements, reported throughput, architecture, management
path) rather than a hand-entered boolean, so the table is a
*consequence* of the scheme registry.
"""

from __future__ import annotations

from .registry import table1_schemes

__all__ = ["FEATURE_COLUMNS", "feature_matrix"]

FEATURE_COLUMNS = (
    "host_efficiency",
    "compatibility",
    "transparency",
    "performance",
    "deployability",
    "manageability",
)


def feature_matrix() -> dict[str, dict[str, bool]]:
    """Table I: scheme -> {feature: supported}, in the paper's row order."""
    return {
        title: {col: getattr(d, col) for col in FEATURE_COLUMNS}
        for title, d in table1_schemes().items()
    }
