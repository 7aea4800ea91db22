"""Workload generators: fio test cases and application benchmarks."""

from .._lazy import lazy_exports

__all__ = [
    "TABLE_IV_CASES",
    "FioResult",
    "FioRun",
    "FioSpec",
    "run_fio",
    "SysbenchResult",
    "SysbenchRun",
    "SysbenchSpec",
    "run_sysbench",
    "TPCC_TABLES",
    "TPCCResult",
    "TPCCRun",
    "TPCCSpec",
    "run_tpcc",
    "TRACE_PROFILES",
    "TraceProfile",
    "TraceRecord",
    "TraceResult",
    "generate_trace",
    "replay_trace",
    "YCSB_WORKLOADS",
    "YCSBResult",
    "YCSBRun",
    "YCSBSpec",
    "run_ycsb",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "fio": ("TABLE_IV_CASES", "FioResult", "FioRun", "FioSpec", "run_fio"),
    "sysbench": (
        "SysbenchResult", "SysbenchRun", "SysbenchSpec", "run_sysbench",
    ),
    "tpcc": ("TPCC_TABLES", "TPCCResult", "TPCCRun", "TPCCSpec", "run_tpcc"),
    "trace": (
        "TRACE_PROFILES", "TraceProfile", "TraceRecord", "TraceResult",
        "generate_trace", "replay_trace",
    ),
    "ycsb": (
        "YCSB_WORKLOADS", "YCSBResult", "YCSBRun", "YCSBSpec", "run_ycsb",
    ),
})
