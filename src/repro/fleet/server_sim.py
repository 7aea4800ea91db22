"""One fleet server's simulation: a fresh BM-Store world per spec.

:class:`ServerRunSpec` is pure picklable data (like
:class:`repro.runner.RunSpec`): server identity, its own seed, the
tenants placed on it, when its rolling-upgrade wave fires, and an
optional fault preset.  :func:`run_server` rebuilds the whole world from
the spec inside whatever process it lands in, so fanning a fleet over
``repro.runner.parallel_map`` workers returns byte-identical payloads
to a sequential loop.

Tenant load is paced (the fig15 recipe): a handful of workers per
tenant issuing one I/O every ``pace_ns``, each completion ticking a
:class:`~repro.sim.SeriesRecorder` — so availability windows, upgrade
pauses, and fault dips are visible without saturating the event budget
across a 24+ server fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..baselines import build_bmstore
from ..core.qos import QoSLimits
from ..faults import FaultPlan, get_preset
from ..obs import MetricsRegistry
from ..sim import SeriesRecorder
from ..sim.units import MS
from .migration import DirtyChunks, MigrationArrival, MigrationPlan

__all__ = ["TenantAssignment", "ServerRunSpec", "run_server", "shifted_preset"]


@dataclass(frozen=True)
class TenantAssignment:
    """One tenant as provisioned on one server (picklable)."""

    name: str
    qos: str
    capacity_bytes: int
    read_fraction: float
    block_bytes: int
    workers: int
    max_iops: float | None = None
    max_mbps: float | None = None
    slo_availability: float = 0.99
    slo_p99_us: float = 20_000.0


@dataclass(frozen=True)
class ServerRunSpec:
    """Everything needed to rebuild and run one server's world."""

    server: str
    rack: str
    seed: int
    num_ssds: int = 1
    tenants: tuple[TenantAssignment, ...] = ()
    run_ns: int = 2_000 * MS
    window_ns: int = 50 * MS
    pace_ns: int = 4 * MS
    upgrade_at_ns: int = -1          # -1 = this server is not upgraded
    activation_s: float = 0.08
    fw_version: str = "FW-NEXT"
    faults: str | None = None        # preset name, armed shifted to fault_at_ns
    fault_at_ns: int = 0
    obs_mode: str = "counters"
    #: tenants scheduled to leave this server (MigrationPlan tuple)
    migrate_out: tuple = ()
    #: tenants scheduled to arrive here (MigrationArrival tuple)
    migrate_in: tuple = ()
    #: arm the engine's CXL buffer tier on this server (0 = dormant,
    #: keeping the payload byte-identical to pre-CXL builds)
    cxl: bool = False


def shifted_preset(name: str, fault_at_ns: int) -> FaultPlan:
    """The canned plan with its schedule translated to ``fault_at_ns``.

    Presets are timed for the quick fio cases (faults at ~10 ms); a
    fleet run spans seconds, so the earliest spec is moved to
    ``fault_at_ns`` and every other spec keeps its relative offset.
    """
    plan = get_preset(name)
    if not plan.specs:
        return plan
    offset = fault_at_ns - min(s.at_ns for s in plan.specs)
    shifted = FaultPlan(driver_policy=plan.driver_policy)
    for spec in plan.specs:
        shifted.add(replace(spec, at_ns=spec.at_ns + offset))
    return shifted


def _p99_us(samples_ns: list[int]) -> float:
    if not samples_ns:
        return 0.0
    ordered = sorted(samples_ns)
    idx = min(len(ordered) - 1, max(0, -(-99 * len(ordered) // 100) - 1))
    return ordered[idx] / 1e3


def run_server(spec: ServerRunSpec) -> dict:
    """Simulate one server end to end; returns its JSON-able payload.

    Module-level (not a closure) so multiprocessing can import it by
    name in spawned workers.  Floats stay at full precision: parallel
    and sequential fleet runs must serialize identically.
    """
    plan = shifted_preset(spec.faults, spec.fault_at_ns) if spec.faults else None
    obs = MetricsRegistry(mode=spec.obs_mode)
    rig = build_bmstore(num_ssds=spec.num_ssds, seed=spec.seed, obs=obs,
                        faults=plan)
    sim = rig.sim
    if spec.cxl:
        rig.engine.cxl_tier()

    drivers = {}
    series = {}
    stats = {}
    stop = {}

    def provision_tenant(tenant: TenantAssignment) -> None:
        limits = None
        if tenant.max_iops is not None or tenant.max_mbps is not None:
            limits = QoSLimits(
                max_iops=tenant.max_iops,
                max_bytes_per_sec=(tenant.max_mbps * 1e6
                                   if tenant.max_mbps is not None else None),
            )
        fn = rig.provision(tenant.name, tenant.capacity_bytes, limits=limits)
        drivers[tenant.name] = rig.baremetal_driver(fn)
        series[tenant.name] = SeriesRecorder(sim, window_ns=spec.window_ns)
        stats[tenant.name] = {"ios": 0, "errors": 0, "lat_ns": []}
        stop[tenant.name] = False

    for tenant in spec.tenants:
        provision_tenant(tenant)
    # migrated-in tenants are provisioned up front (the destination's
    # namespace exists from the moment the plan is cut) but stay idle
    # until their scheduled handover
    for arrival in spec.migrate_in:
        provision_tenant(arrival.tenant)

    def tenant_worker(tenant: TenantAssignment, tag: int):
        driver = drivers[tenant.name]
        rec, st = series[tenant.name], stats[tenant.name]
        blocks = max(1, tenant.block_bytes // 4096)
        span = max(blocks, driver.num_blocks - blocks)
        lba = (tag * 7919 * blocks) % span
        # deterministic read/write interleave: the first N ops of every
        # 10-op cycle read, matching the profile's mix to 10%
        reads = round(tenant.read_fraction * 10)
        k = 0
        while not stop[tenant.name]:
            t0 = sim.now
            if k % 10 < reads:
                info = yield driver.read(lba, blocks)
            else:
                info = yield driver.write(lba, blocks)
            st["ios"] += 1
            st["lat_ns"].append(sim.now - t0)
            if info.ok:
                rec.tick()
            else:
                st["errors"] += 1
            lba = (lba + 7919 * blocks) % span
            k += 1
            yield sim.timeout(spec.pace_ns)

    upgrades: list[dict] = []
    migrations: list[dict] = []

    def orchestrate():
        if spec.upgrade_at_ns >= 0:
            yield sim.timeout(spec.upgrade_at_ns)
            for ssd_id in range(spec.num_ssds):
                resp = yield rig.console.hot_upgrade(
                    ssd_id, version=spec.fw_version,
                    activation_s=spec.activation_s)
                upgrades.append(dict(resp.body))
        if sim.now < spec.run_ns:
            yield sim.timeout(spec.run_ns - sim.now)
        for name in stop:
            stop[name] = True

    def migrate_proc(plan: MigrationPlan):
        """Execute one departure plan against this server's world."""
        ens = rig.engine.namespaces[plan.tenant]
        rec = {"tenant": plan.tenant, "mode": plan.mode, "dest": plan.dest,
               "start_ns": plan.start_ns, "chunks": len(ens.chunks),
               "rounds": [], "final_dirty": 0, "handover_ns": 0}
        yield sim.timeout(plan.start_ns)
        if plan.mode == "drain":
            # stop-the-world: tenant is dark for the whole cold copy
            stop[plan.tenant] = True
            yield sim.timeout(len(ens.chunks) * plan.cold_chunk_copy_ns)
            rec["handover_ns"] = sim.now
            migrations.append(rec)
            return
        # iterative pre-copy: round 0 copies everything; each later
        # round re-copies only what the write path dirtied meanwhile
        dirty = DirtyChunks(rig.engine, ens, range(len(ens.chunks)))
        for _ in range(plan.rounds):
            rec["rounds"].append(len(dirty.chunks))
            dirty.chunks.clear()
            yield sim.timeout(plan.round_ns)
        if plan.mode == "prime":
            # warm standby ahead of a planned wave: no stop, no dest
            rec["final_dirty"] = len(dirty.chunks)
            dirty.close()
            migrations.append(rec)
            return
        stop[plan.tenant] = True
        rec["final_dirty"] = len(dirty.chunks)
        dirty.close()
        yield sim.timeout(plan.cutover_ns)
        rec["handover_ns"] = sim.now
        migrations.append(rec)

    def arrival_proc(arrival: MigrationArrival):
        yield sim.timeout(arrival.serve_from_ns)
        for tag in range(arrival.tenant.workers):
            sim.spawn(tenant_worker(arrival.tenant, tag),
                      name=f"{arrival.tenant.name}.{tag}")

    for tenant in spec.tenants:
        for tag in range(tenant.workers):
            sim.spawn(tenant_worker(tenant, tag),
                      name=f"{tenant.name}.{tag}")
    for plan in spec.migrate_out:
        sim.spawn(migrate_proc(plan), name=f"{plan.tenant}.migrate")
    for arrival in spec.migrate_in:
        sim.spawn(arrival_proc(arrival), name=f"{arrival.tenant.name}.arrive")
    sim.run(sim.process(orchestrate(), name=f"{spec.server}.orch"))
    # drain in-flight retries so error/latency accounting is complete
    sim.run(until=sim.now + 100 * MS)

    nwindows = spec.run_ns // spec.window_ns

    def tenant_out(tenant: TenantAssignment) -> dict:
        st = stats[tenant.name]
        rates = [rate for t, rate in
                 series[tenant.name].series(0, spec.run_ns)][:nwindows]
        rates += [0.0] * (nwindows - len(rates))
        available = sum(1 for r in rates if r > 0.0)
        return {
            "tenant": tenant.name,
            "qos": tenant.qos,
            "ios": st["ios"],
            "errors": st["errors"],
            "availability": available / nwindows if nwindows else 1.0,
            "windows": rates,
            "p99_us": _p99_us(st["lat_ns"]),
            "slo_availability": tenant.slo_availability,
            "slo_p99_us": tenant.slo_p99_us,
        }

    tenants_out = [tenant_out(t) for t in spec.tenants]
    arrivals_out = [
        {**tenant_out(a.tenant), "source": a.source, "mode": a.mode,
         "serve_from_ns": a.serve_from_ns}
        for a in spec.migrate_in
    ]

    fault_kinds = sorted({e["kind"] for e in rig.controller.fault_log})
    payload_extra = {}
    if spec.cxl:
        # only armed servers grow the key: dormant payloads must stay
        # byte-identical to pre-CXL builds
        payload_extra["cxl"] = rig.engine.cxl.stat()
    return {
        **payload_extra,
        "server": spec.server,
        "rack": spec.rack,
        "seed": spec.seed,
        "upgrade_at_ns": spec.upgrade_at_ns,
        "upgrades": upgrades,
        "tenants": tenants_out,
        "arrivals": arrivals_out,
        "migrations": sorted(migrations, key=lambda m: m["tenant"]),
        "ios": sum(t["ios"] for t in tenants_out + arrivals_out),
        "errors": sum(t["errors"] for t in tenants_out + arrivals_out),
        "faults": spec.faults,
        "faults_injected": rig.faults.injected if rig.faults is not None else 0,
        "fault_kinds": fault_kinds,
        "bmsc_recoveries": rig.controller.recoveries,
        "sim_events": sim.events_processed,
    }
