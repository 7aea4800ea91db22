"""Shared experiment harness: result records and scheme runners.

Every table/figure reproduction returns an :class:`ExperimentResult`
(id, rows, notes) that benchmarks print and EXPERIMENTS.md quotes.
Runtime windows are simulation-time; they are chosen so steady-state
rates converge while benchmark wall time stays in seconds.

Scheme runners: :data:`SCHEMES` maps a scheme name ("native",
"bmstore", "passthrough", "vfio-vm", "bmstore-vm", "spdk-vm") to a
builder that runs one fio case in a freshly built world.
:func:`run_case` is the single entry point; it attaches a
:class:`~repro.obs.MetricsRegistry` to the world and returns a
:class:`CaseResult` bundling the fio measurement with the
observability snapshot.  Submission behaviour (doorbell mode, CQE
coalescing, engine DMA model) is chosen with ``policy=``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

from ..baselines import (
    BMStoreRig,
    build_bmstore,
    build_native,
    build_spdk,
    build_vfio,
)
from ..baselines.registry import runnable_schemes
from ..checks import CheckContext, resolve_checks
from ..faults import FaultPlan
from ..host.driver import NVMeDriver
from ..host.kernel_profile import DEFAULT_KERNEL, KernelProfile
from ..host.policy import resolve_policy
from ..host.vm import VirtualMachine
from ..obs import MetricsRegistry
from ..sim.units import GIB, MS
from ..workloads.fio import FioResult, FioRun, FioSpec, TABLE_IV_CASES

__all__ = [
    "ExperimentResult",
    "time_scale",
    "scaled",
    "quick_cases",
    "CaseResult",
    "SCHEMES",
    "run_case",
    "BM_NAMESPACE_BYTES",
]

#: the paper binds a 1536 GB namespace from one backend SSD
BM_NAMESPACE_BYTES = 1536 * GIB

#: sentinel distinguishing "no default given" from ``default=None``
_RAISE = object()


def time_scale() -> float:
    """REPRO_TIME_SCALE stretches every measurement window (default 1)."""
    return float(os.environ.get("REPRO_TIME_SCALE", "1.0"))


def scaled(spec: FioSpec, runtime_ns: int, ramp_ns: int) -> FioSpec:
    """A copy of the spec with REPRO_TIME_SCALE applied to its windows."""
    factor = time_scale()
    return replace(spec, runtime_ns=int(runtime_ns * factor), ramp_ns=int(ramp_ns * factor))


#: Table IV cases with benchmark-friendly windows (rates converge in
#: a few ms of simulated time; seq cases need longer for deep queues).
_WINDOWS = {
    "rand-r-1": (30 * MS, 4 * MS),
    "rand-r-128": (25 * MS, 5 * MS),
    "rand-w-1": (25 * MS, 4 * MS),
    "rand-w-16": (25 * MS, 4 * MS),
    "seq-r-256": (220 * MS, 60 * MS),
    "seq-w-256": (400 * MS, 120 * MS),
}


def quick_cases(names: Optional[Sequence[str]] = None) -> list[FioSpec]:
    """Table IV specs with benchmark-friendly measurement windows.

    ``None`` means every Table IV case; an explicit empty sequence means
    no cases (so callers can filter down to zero without silently
    getting the full grid back).
    """
    names = list(TABLE_IV_CASES) if names is None else list(names)
    unknown = [n for n in names if n not in TABLE_IV_CASES]
    if unknown:
        known = ", ".join(TABLE_IV_CASES)
        raise KeyError(f"unknown case name(s) {unknown} (known: {known})")
    return [
        scaled(TABLE_IV_CASES[name], *_WINDOWS[name]) for name in names
    ]


@dataclass
class ExperimentResult:
    """One reproduced table/figure."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **row: Any) -> None:
        self.rows.append(row)

    def column(self, key: str, default: Any = _RAISE) -> list[Any]:
        """Values of one column across all rows.

        Rows may be ragged (rows added later can carry extra columns).
        With no ``default``, a missing key raises a ``KeyError`` naming
        the offending row instead of a bare index blow-up; passing
        ``default`` fills the holes.
        """
        if default is not _RAISE:
            return [row.get(key, default) for row in self.rows]
        out = []
        for i, row in enumerate(self.rows):
            try:
                out.append(row[key])
            except KeyError:
                raise KeyError(
                    f"[{self.experiment_id}] row {i} has no column {key!r} "
                    f"(row keys: {sorted(row)}); pass default= to tolerate "
                    "ragged rows"
                ) from None
        return out

    def row_for(self, **match: Any) -> dict[str, Any]:
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match}")

    def table(self) -> str:
        if not self.rows:
            return f"[{self.experiment_id}] {self.title}: (no rows)"
        # union of keys over all rows, in first-seen order (rows added
        # later may carry extra columns)
        keys: list[str] = []
        for row in self.rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        widths = {
            k: max(len(k), *(len(_fmt(r.get(k))) for r in self.rows)) for k in keys
        }
        lines = [f"[{self.experiment_id}] {self.title}"]
        lines.append("  " + " | ".join(k.ljust(widths[k]) for k in keys))
        lines.append("  " + "-+-".join("-" * widths[k] for k in keys))
        for row in self.rows:
            lines.append(
                "  " + " | ".join(_fmt(row.get(k)).ljust(widths[k]) for k in keys)
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3g}" if abs(value) < 1000 else f"{value:,.0f}"
    return str(value)


# ---------------------------------------------------------------------------
# scheme runners: one fio case on one scheme, freshly built worlds
# ---------------------------------------------------------------------------

@dataclass
class CaseResult:
    """One fio case on one scheme: measurement + observability.

    ``fio`` is the throughput/latency measurement; ``obs`` is the live
    registry the world wrote into (spans, stage histograms, per-ns
    counters) and ``snapshot`` its JSON-able dump taken right after the
    run.  The common FioResult accessors are forwarded for convenience.
    """

    scheme: str
    spec: FioSpec
    fio: FioResult
    obs: MetricsRegistry
    snapshot: dict[str, Any]
    #: the armed CheckContext (invariant coverage counts), or None
    checks: Optional[CheckContext] = None

    @property
    def iops(self) -> float:
        return self.fio.iops

    @property
    def bandwidth_bps(self) -> float:
        return self.fio.bandwidth_bps

    @property
    def bandwidth_mbps(self) -> float:
        return self.fio.bandwidth_mbps

    @property
    def avg_latency_us(self) -> float:
        return self.fio.avg_latency_us

    @property
    def latency(self):
        return self.fio.latency

    @property
    def errors(self) -> int:
        """I/Os that completed with a non-success NVMe status."""
        return getattr(self.fio, "errors", 0)


def _finish(sim, run: FioRun) -> FioResult:
    sim.run(run.finished)
    result = run.result()
    result.sim_events = sim.events_processed
    return result


def _scheme_native(spec: FioSpec, *, seed: int, kernel: KernelProfile,
                   obs: MetricsRegistry, num_ssds: int = 1,
                   faults: Optional[FaultPlan] = None,
                   checks=None, policy=None) -> FioResult:
    """Bare-metal: the host NVMe driver directly on physical drives."""
    rig = build_native(num_ssds=num_ssds, seed=seed, kernel=kernel, obs=obs,
                       faults=faults, checks=checks, policy=policy)
    return _finish(rig.sim, FioRun(rig.sim, rig.drivers, spec, rig.streams))


def _apply_dma_model(rig: BMStoreRig, key: str, policy) -> None:
    if policy is not None and policy.dma != "register":
        rig.engine.set_dma_model(key, policy.dma)


def _bmstore_baremetal(num_ssds: int, seed: int, kernel: KernelProfile,
                       obs: Optional[MetricsRegistry] = None,
                       policy=None,
                       **rig_kwargs) -> tuple[BMStoreRig, NVMeDriver]:
    rig = build_bmstore(num_ssds=num_ssds, seed=seed, kernel=kernel, obs=obs,
                        **rig_kwargs)
    size = min(BM_NAMESPACE_BYTES, num_ssds * 28 * 64 * GIB)
    fn = rig.provision("ns0", size)
    _apply_dma_model(rig, "ns0", policy)
    return rig, rig.baremetal_driver(fn, policy=policy)


def _scheme_bmstore(spec: FioSpec, *, seed: int, kernel: KernelProfile,
                    obs: MetricsRegistry, num_ssds: int = 1,
                    policy=None, **rig_kwargs) -> FioResult:
    """Bare-metal BM-Store: host driver on an engine PF/VF namespace."""
    rig, driver = _bmstore_baremetal(num_ssds, seed, kernel, obs=obs,
                                     policy=policy, **rig_kwargs)
    return _finish(rig.sim, FioRun(rig.sim, [driver], spec, rig.streams))


def _scheme_passthrough(spec: FioSpec, *, seed: int, kernel: KernelProfile,
                        obs: MetricsRegistry, num_ssds: int = 1,
                        policy=None, **rig_kwargs) -> FioResult:
    """Bare-metal BM-Store with I/O-queue passthrough: the engine maps
    the function's SQ/CQ pairs straight onto the backing SSD and only
    relays doorbells — no per-command interposition (arXiv 2304.05148
    style).  Needs a single-SSD namespace (one contiguous extent)."""
    rig = build_bmstore(num_ssds=num_ssds, seed=seed, kernel=kernel, obs=obs,
                        **rig_kwargs)
    size = min(BM_NAMESPACE_BYTES, 28 * 64 * GIB)
    fn = rig.provision("ns0", size, placement=[0] * -(-size // rig.engine.chunk_bytes))
    rig.engine.passthrough_mode().enable("ns0")
    _apply_dma_model(rig, "ns0", policy)
    driver = rig.baremetal_driver(fn, policy=policy)
    return _finish(rig.sim, FioRun(rig.sim, [driver], spec, rig.streams))


def _scheme_vfio_vm(spec: FioSpec, *, seed: int, kernel: KernelProfile,
                    obs: MetricsRegistry,
                    faults: Optional[FaultPlan] = None,
                    checks=None, policy=None) -> FioResult:
    """In-VM on a VFIO-assigned whole drive."""
    rig = build_vfio(num_vms=1, seed=seed, kernel=kernel, guest_kernel=kernel,
                     obs=obs, faults=faults, checks=checks, policy=policy)
    return _finish(rig.sim, FioRun(rig.sim, [rig.driver()], spec, rig.streams))


def _scheme_bmstore_vm(spec: FioSpec, *, seed: int, kernel: KernelProfile,
                       obs: MetricsRegistry, num_ssds: int = 1,
                       faults: Optional[FaultPlan] = None,
                       checks=None, policy=None) -> FioResult:
    """In-VM on a BM-Store VF."""
    rig = build_bmstore(num_ssds=num_ssds, seed=seed, kernel=kernel, obs=obs,
                        faults=faults, checks=checks)
    vm = VirtualMachine(rig.host, "vm0", guest_kernel=kernel)
    fn = rig.provision("ns0", BM_NAMESPACE_BYTES)
    _apply_dma_model(rig, "ns0", policy)
    driver = rig.vm_driver(vm, fn, policy=policy)
    return _finish(rig.sim, FioRun(rig.sim, [driver], spec, rig.streams))


def _scheme_spdk_vm(spec: FioSpec, *, seed: int, kernel: KernelProfile,
                    obs: MetricsRegistry, num_cores: int = 1,
                    faults: Optional[FaultPlan] = None,
                    checks=None, policy=None) -> FioResult:
    """In-VM on an SPDK vhost virtio disk."""
    if policy is not None and not policy.is_default:
        # the registry declares it: vhost submission is virtio, not NVMe
        raise ValueError("spdk-vm does not honour submission policies")
    rig = build_spdk(
        num_ssds=1, num_cores=num_cores, num_vdevs=1,
        vdev_blocks=BM_NAMESPACE_BYTES // 4096, seed=seed, kernel=kernel,
        obs=obs, faults=faults, checks=checks,
    )
    return _finish(rig.sim, FioRun(rig.sim, [rig.vdev()], spec, rig.streams))


#: scheme name -> runner; the *capabilities* of each scheme are declared
#: in :mod:`repro.baselines.registry` — add a SchemeDef there first,
#: then the runner here, and every experiment plus ``python -m repro
#: fio/stats`` picks it up
SCHEMES: dict[str, Callable[..., FioResult]] = {
    "native": _scheme_native,
    "bmstore": _scheme_bmstore,
    "passthrough": _scheme_passthrough,
    "vfio-vm": _scheme_vfio_vm,
    "bmstore-vm": _scheme_bmstore_vm,
    "spdk-vm": _scheme_spdk_vm,
}

# the runner map must cover exactly the registry's runnable schemes
assert set(SCHEMES) == set(runnable_schemes()), (
    "scheme runners out of sync with baselines.registry: "
    f"{sorted(set(SCHEMES) ^ set(runnable_schemes()))}"
)


def run_case(
    scheme: str,
    spec: FioSpec,
    *,
    seed: int = 7,
    kernel: KernelProfile = DEFAULT_KERNEL,
    obs: Optional[MetricsRegistry] = None,
    obs_mode: str = "full",
    span_sample: int = 16,
    checks: Any = None,
    policy: Any = None,
    **scheme_kwargs: Any,
) -> CaseResult:
    """Run one fio case on one scheme in a freshly built world.

    ``obs`` is attached to every instrumented layer of that world (pass
    your own registry to control span capacity, or let this create
    one).  ``obs_mode``/``span_sample`` configure the created registry
    ("full", "sampled", or "counters" — see
    :class:`~repro.obs.MetricsRegistry`) and are ignored when ``obs``
    is supplied.  ``checks`` arms runtime invariant checkers ("all", a
    comma list of checker names, a :class:`~repro.checks.CheckContext`,
    or ``None`` to follow the ``REPRO_CHECKS`` environment variable —
    see :func:`~repro.checks.resolve_checks`); the armed context rides
    back on ``CaseResult.checks``.  ``policy`` is a
    :class:`~repro.host.policy.SubmissionPolicy` (or its string
    spelling, e.g. ``"shadow"`` or ``"batched:16"``) selecting the
    doorbell mode, CQE coalescing, and engine DMA model; ``None`` is
    the byte-identical classic path.  Extra keyword arguments go to the
    scheme runner (e.g.  ``num_ssds=4`` for "native"/"bmstore",
    ``zero_copy=False`` for "bmstore", ``num_cores=2`` for "spdk-vm",
    ``faults=FaultPlan(...)`` for any scheme to arm deterministic fault
    injection).
    """
    runner = SCHEMES.get(scheme)
    if runner is None:
        known = ", ".join(sorted(SCHEMES))
        raise ValueError(f"unknown scheme {scheme!r} (known: {known})")
    pol = resolve_policy(policy)
    if obs is None:
        obs = MetricsRegistry(mode=obs_mode, span_sample=span_sample)
    ctx = resolve_checks(checks, obs)
    # pass False (not None) when disarmed so builders don't re-consult
    # the environment and arm a second, unreported context
    fio = runner(spec, seed=seed, kernel=kernel, obs=obs,
                 checks=ctx if ctx is not None else False, policy=pol,
                 **scheme_kwargs)
    return CaseResult(scheme=scheme, spec=spec, fio=fio, obs=obs,
                      snapshot=obs.snapshot(), checks=ctx)


VM_SCHEMES = ("vfio", "bmstore", "spdk")


def build_vm_targets(scheme: str, num_targets: int = 1, seed: int = 7,
                     num_ssds: int = 1, ns_bytes: int = 256 * GIB):
    """One world with ``num_targets`` VM-visible disks of one scheme.

    Returns (sim, streams, [BlockTarget]).  The application experiments
    (Figs. 13/14) run the mini databases on these.
    """
    if scheme == "vfio":
        rig = build_vfio(num_vms=num_targets, seed=seed)
        return rig.sim, rig.streams, list(rig.drivers)
    if scheme == "bmstore":
        rig = build_bmstore(num_ssds=max(num_ssds, 1), seed=seed)
        targets = []
        for v in range(num_targets):
            fn = rig.provision(f"app{v}", ns_bytes)
            vm = VirtualMachine(rig.host, f"vm{v}")
            targets.append(rig.vm_driver(vm, fn))
        return rig.sim, rig.streams, targets
    if scheme == "spdk":
        rig = build_spdk(
            num_ssds=max(num_ssds, 1), num_cores=1, num_vdevs=num_targets,
            vdev_blocks=ns_bytes // 4096, seed=seed,
        )
        return rig.sim, rig.streams, list(rig.vdevs)
    raise ValueError(f"unknown scheme {scheme!r}")
