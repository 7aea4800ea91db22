"""Parallel experiment runner: a (scheme x case) grid over worker processes.

Every run builds a *fresh* world inside its worker from nothing but the
:class:`RunSpec` fields (scheme, case name, seed, fault preset name),
and every random stream in that world is seeded from the run's own
seed.  Workers therefore share no state, and a grid executed on N
processes returns byte-identical payloads to the same grid executed
sequentially — parallelism is purely a wall-clock optimisation, never a
result perturbation.

The payloads are plain JSON-able dicts (full-precision floats, no
rounding), so ``json.dumps(..., sort_keys=True)`` of a grid is a stable
determinism probe: CI runs the same grid with ``--workers 1`` and
``--workers 4`` and byte-compares the files.

``REPRO_WORKERS`` sets the default worker count for every entry point
that does not pass one explicitly (experiments, the benchmark suite).
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

__all__ = ["RunSpec", "run_grid", "run_specs", "default_workers", "parallel_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment grid, picklable by construction.

    ``faults`` is a canned-plan *name* (see :data:`repro.faults.PRESETS`)
    rather than a live :class:`FaultPlan`, so a spec can cross a process
    boundary and still arm the identical deterministic plan.  For the
    same reason ``checks`` is a *string* spec ("all", "ring,qos", "off",
    or ``None`` to follow ``REPRO_CHECKS``), not a live CheckContext,
    and ``policy`` is a submission-policy *spelling* ("shadow",
    "batched:16", "doorbell=shadow,coalesce=4,...") parsed by
    :func:`repro.host.policy.parse_policy`, not a live object.
    ``scheme_kwargs`` go to the scheme runner (``num_ssds=4``, ...).
    """

    scheme: str
    case: str
    seed: int = 7
    faults: Optional[str] = None
    obs_mode: str = "full"
    span_sample: int = 16
    checks: Optional[str] = None
    policy: Optional[str] = None
    scheme_kwargs: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        tag = f"{self.scheme}/{self.case}@{self.seed}"
        if self.faults:
            tag = f"{tag}+{self.faults}"
        if self.policy:
            tag = f"{tag}~{self.policy}"
        return tag


def default_workers() -> int:
    """Worker count when the caller does not choose: REPRO_WORKERS or 1."""
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}") from None
    return 1


def run_one(spec: RunSpec) -> dict[str, Any]:
    """Execute one grid cell in this process; returns its payload dict.

    Module-level (not a closure) so multiprocessing can import it by
    name in spawned workers.  Floats are kept at full precision: the
    sequential and parallel paths must serialize identically.
    """
    from .experiments.common import quick_cases, run_case

    (fio_spec,) = quick_cases([spec.case])
    kwargs = dict(spec.scheme_kwargs)
    if spec.faults:
        from .experiments.fig8_table5 import case_latency_ns
        from .faults import get_preset

        kwargs["faults"] = get_preset(spec.faults, case_latency_ns(spec.case))
    # the hot path recycles its per-I/O objects through free lists, so
    # cyclic garbage barely accumulates during a run; pausing the
    # collector avoids full-heap scans mid-simulation (results are
    # payload-identical — GC timing never influences event order)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        case = run_case(spec.scheme, fio_spec, seed=spec.seed,
                        obs_mode=spec.obs_mode, span_sample=spec.span_sample,
                        checks=spec.checks, policy=spec.policy, **kwargs)
    finally:
        if gc_was_enabled:
            gc.enable()
    lat = case.latency
    return {
        "scheme": spec.scheme,
        "case": spec.case,
        "seed": spec.seed,
        "faults": spec.faults,
        "policy": spec.policy,
        "obs_mode": spec.obs_mode,
        "ios": case.fio.ios,
        "errors": case.errors,
        "sim_events": case.fio.sim_events,
        "iops": case.iops,
        "bandwidth_mbps": case.bandwidth_mbps,
        "avg_latency_us": case.avg_latency_us,
        "p99_us": lat.p99_us if lat else None,
        "snapshot": case.snapshot,
    }


def parallel_map(fn: Callable[[_T], _R], items: Sequence[_T],
                 workers: Optional[int] = None) -> list[_R]:
    """Ordered map over worker processes; ``workers<=1`` stays inline.

    ``fn`` must be a module-level callable and ``items`` picklable.
    Results come back in input order regardless of completion order, so
    output never depends on scheduling.
    """
    items = list(items)
    if workers is None:
        workers = default_workers()
    workers = max(1, min(int(workers), len(items) or 1))
    if workers == 1:
        return [fn(item) for item in items]
    import multiprocessing as mp

    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    with mp.get_context(method).Pool(workers) as pool:
        return pool.map(fn, items)


def run_specs(specs: Iterable[RunSpec],
              workers: Optional[int] = None) -> list[dict[str, Any]]:
    """Run every spec, fanning out over ``workers`` processes."""
    return parallel_map(run_one, list(specs), workers=workers)


def run_grid(
    schemes: Sequence[str],
    cases: Sequence[str],
    *,
    seed: int = 7,
    faults: Optional[str] = None,
    obs_mode: str = "full",
    span_sample: int = 16,
    checks: Optional[str] = None,
    policy: Optional[str] = None,
    workers: Optional[int] = None,
    **scheme_kwargs: Any,
) -> list[dict[str, Any]]:
    """The (scheme x case) product, case-major so one table's rows stay
    adjacent; returns payload dicts in grid order."""
    specs = [
        RunSpec(scheme=scheme, case=case, seed=seed, faults=faults,
                obs_mode=obs_mode, span_sample=span_sample, checks=checks,
                policy=policy, scheme_kwargs=dict(scheme_kwargs))
        for case in cases
        for scheme in schemes
    ]
    return run_specs(specs, workers=workers)
