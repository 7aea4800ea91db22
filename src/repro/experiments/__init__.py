"""Experiment harness: one module per paper table/figure.

Each module's ``run()`` returns an :class:`ExperimentResult`; the
``benchmarks/`` tree regenerates every artifact from these, and
``examples/reproduce_paper.py`` prints them all.
"""

from .._lazy import lazy_exports

__all__ = [
    "ablations",
    "extensions",
    "fault_recovery",
    "fig1",
    "fig8_table5",
    "fig9_table7",
    "fig10",
    "fig11",
    "fig12",
    "fig13a",
    "fig13b_table8",
    "fig14",
    "fig15_table9",
    "latency_breakdown",
    "table1",
    "table2",
    "table6",
    "tco_analysis",
    "BM_NAMESPACE_BYTES",
    "SCHEMES",
    "CaseResult",
    "ExperimentResult",
    "build_vm_targets",
    "quick_cases",
    "run_case",
    "scaled",
    "time_scale",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "common": (
        "BM_NAMESPACE_BYTES", "SCHEMES", "CaseResult", "ExperimentResult",
        "build_vm_targets", "quick_cases", "run_case", "scaled", "time_scale",
    ),
})
