"""Fig. 8 + Table V — bare-metal single-disk performance.

All six Table IV fio cases on the native disk, on a BM-Store namespace
(1536 GB from one backend drive, bound to a VF), and on the same
namespace in I/O-queue passthrough mode (guest rings mapped straight
onto the backend drive, engine out of the data path).  Reports IOPS,
bandwidth, and average latency; the paper's shape is BM-Store at
96.2-101.4% of native everywhere except rand-w-1 (~82.5%) and a ~3 us
constant latency adder.  Passthrough should land between the two:
faster than the mediated engine, still behind raw native.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..runner import RunSpec, run_specs
from ..sim.units import us
from .common import ExperimentResult, quick_cases

__all__ = ["run", "PAPER_LATENCY_US", "case_latency_ns"]

#: Table V reference values (us)
PAPER_LATENCY_US = {
    "rand-r-1": (77.2, 80.4),
    "rand-r-128": (786.7, 792.6),
    "rand-w-1": (11.6, 14.5),
    "rand-w-16": (179.8, 179.9),
    "seq-r-256": (40579.3, 40041.3),
    "seq-w-256": (92502.3, 95030.0),
}


def case_latency_ns(case: str) -> Optional[int]:
    """The larger of ``case``'s two Table V latencies, in ns (None for a
    case the table does not list): the expected latency fault presets
    scale their driver timeouts to."""
    anchors = PAPER_LATENCY_US.get(case)
    return None if anchors is None else us(max(anchors))


def run(cases: Optional[Sequence[str]] = None, seed: int = 7,
        workers: Optional[int] = None) -> ExperimentResult:
    """Regenerate this artifact; returns the ExperimentResult.

    ``workers`` fans the (scheme x case) grid over processes (default:
    REPRO_WORKERS or sequential); results are identical either way.
    """
    result = ExperimentResult(
        "fig8+table5",
        "Bare-metal performance with 1 disk: Native vs BM-Store vs passthrough"
    )
    specs = quick_cases(cases)
    grid = run_specs(
        [RunSpec(scheme=scheme, case=spec.name, seed=seed)
         for spec in specs
         for scheme in ("native", "bmstore", "passthrough")],
        workers=workers,
    )
    by_cell = {(p["scheme"], p["case"]): p for p in grid}
    for spec in specs:
        native = by_cell[("native", spec.name)]
        bms = by_cell[("bmstore", spec.name)]
        pt = by_cell[("passthrough", spec.name)]
        paper = PAPER_LATENCY_US.get(spec.name, (None, None))
        result.add(
            case=spec.name,
            native_kiops=native["iops"] / 1e3,
            bmstore_kiops=bms["iops"] / 1e3,
            passthrough_kiops=pt["iops"] / 1e3,
            native_mbps=native["bandwidth_mbps"],
            bmstore_mbps=bms["bandwidth_mbps"],
            iops_ratio=bms["iops"] / native["iops"] if native["iops"] else 0.0,
            pt_vs_bmstore=pt["iops"] / bms["iops"] if bms["iops"] else 0.0,
            native_lat_us=native["avg_latency_us"],
            bmstore_lat_us=bms["avg_latency_us"],
            passthrough_lat_us=pt["avg_latency_us"],
            paper_native_lat_us=paper[0],
            paper_bmstore_lat_us=paper[1],
        )
    result.notes.append("paper shape: ratio 0.96-1.01 except rand-w-1 ~0.825")
    result.notes.append(
        "pt_vs_bmstore > 1.0 everywhere: passthrough skips the engine's "
        "7-step per-command path")
    return result
