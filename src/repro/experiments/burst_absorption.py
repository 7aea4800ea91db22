"""Burst absorption: fixed on-card DRAM vs the CXL-extended buffer tier.

Each cell runs the same seeded Fig. 14-style mixed burst twice — two
tenants patterned after the fig14 mix (a YCSB-like tenant issuing large
128 KiB reads next to a Sysbench-like tenant issuing 16 KiB mixed
read/write) slamming an engine whose on-card DRAM budget is deliberately
sized just above its setup footprint.  The ``fixed`` arm has nowhere to
put the burst's PRP lists and dies on ``out of memory``; the ``cxl`` arm
spills them into the CXL window, borrows slot buffer when the window
overflows, and completes.  A steady phase after the burst shows the
promote path handing spilled and borrowed capacity back.

Hot-remove cells surprise-remove backend slot 1 — a lender — mid-burst,
pinning the borrow-revocation path's determinism, then re-attach it and
finish the run.

Cells are self-contained seeded worlds, so fanning them over
:func:`repro.runner.parallel_map` workers returns payloads
byte-identical to a sequential loop — the property the CI determinism
job byte-compares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from ..baselines import build_bmstore
from ..core.cxl import CXLTimings
from ..runner import parallel_map
from ..sim import SimulationError
from ..sim.units import MIB
from .common import ExperimentResult

__all__ = ["BurstCell", "run_cell", "run"]


@dataclass(frozen=True)
class BurstCell:
    """One seeded burst scenario (picklable)."""

    name: str
    seed: int
    hot_remove: bool = False
    #: on-card headroom above the rig's setup footprint — the burst's
    #: PRP-list working set is sized to overflow this
    headroom_kib: int = 96
    #: engine-private CXL window; small enough that the burst also
    #: overflows into borrowed slot buffer
    window_kib: int = 128
    #: idle buffer DRAM per backend slot (half of it lendable), small
    #: enough that borrowing spans both slots
    slot_buffer_kib: int = 128
    kv_workers: int = 48
    kv_ops: int = 12
    sql_workers: int = 32
    sql_ops: int = 16
    steady_workers: int = 8
    steady_ops: int = 12


def _setup_bytes(cell: BurstCell) -> int:
    """The rig's chip-memory footprint before any I/O (self-calibrating:
    rings and the firmware image buffer move, the experiment follows)."""
    probe = build_bmstore(num_ssds=2, seed=cell.seed)
    return probe.engine.chip_memory.allocated


def _run_arm(cell: BurstCell, setup_bytes: int, cxl: bool) -> dict:
    """One world, one buffer configuration; returns the arm's payload."""
    rig = build_bmstore(
        num_ssds=2, seed=cell.seed,
        chip_memory_bytes=setup_bytes + cell.headroom_kib * 1024,
    )
    sim = rig.sim
    if cxl:
        rig.engine.cxl_tier(CXLTimings(
            window_bytes=cell.window_kib * 1024,
            slot_buffer_bytes=cell.slot_buffer_kib * 1024,
        ))
    fn_kv = rig.provision("kv", 128 * MIB)
    fn_sql = rig.provision("sql", 64 * MIB)
    drv_kv = rig.baremetal_driver(fn_kv)
    drv_sql = rig.baremetal_driver(fn_sql)

    arm: dict = {"arm": "cxl" if cxl else "fixed"}
    stats = {"ios": 0, "errors": 0}
    outstanding = {"n": 0}

    def worker(driver, tag: int, ops: int, blocks: int, write_every: int):
        lba = (tag * 7919 * blocks) % max(blocks, driver.num_blocks - blocks)
        for k in range(ops):
            if write_every and k % write_every == 0:
                info = yield driver.write(lba, blocks)
            else:
                info = yield driver.read(lba, blocks)
            stats["ios"] += 1
            if not info.ok:
                stats["errors"] += 1
            lba = (lba + 7919 * blocks) % (driver.num_blocks - blocks)
        outstanding["n"] -= 1

    def spawn(driver, count, ops, blocks, write_every, label):
        for tag in range(count):
            outstanding["n"] += 1
            sim.spawn(worker(driver, tag, ops, blocks, write_every),
                      name=f"{label}{tag}")

    def drain():
        while outstanding["n"] > 0:
            yield sim.timeout(50_000)

    def burst():
        # the whole mixed burst lands at once: 128 KiB YCSB-like reads
        # (32 pages -> one PRP list each) next to 16 KiB Sysbench-like
        # mixed I/O, far more in-flight lists than on-card headroom
        spawn(drv_kv, cell.kv_workers, cell.kv_ops, 32, 0, "kv")
        spawn(drv_sql, cell.sql_workers, cell.sql_ops, 4, 3, "sql")
        if cell.hot_remove:
            yield sim.timeout(200_000)
            removed = rig.engine.surprise_remove(1)
            arm["removed_lender"] = removed is not None
            yield sim.timeout(400_000)
            rig.engine.adaptor.slot_for(1).attach_ssd(removed)
        yield from drain()
        if cxl:
            # burst just drained: nothing has been handed back yet, so
            # the tier's current borrow level is the cell's peak
            arm["borrowed_peak_bytes"] = rig.engine.cxl.borrowed_bytes
            arm["spills_at_burst_end"] = rig.engine.cxl.spills
        # steady phase: the shrunken working set fits the recycled
        # on-card buffers again; promotes hand spilled capacity back
        spawn(drv_kv, cell.steady_workers, cell.steady_ops, 32, 0, "st")
        yield from drain()

    try:
        sim.run(sim.process(burst(), name=f"{cell.name}.burst"))
        arm["completed"] = True
    except SimulationError as exc:
        # the fixed-DRAM arm dies here: nowhere to put the burst's
        # PRP lists once the bump allocator hits its budget
        arm["completed"] = False
        arm["error"] = str(exc)
    arm["ios"] = stats["ios"]
    arm["errors"] = stats["errors"]
    arm["sim_events"] = sim.events_processed
    if cxl:
        arm["tier"] = rig.engine.cxl.stat()
    return arm


def run_cell(cell: BurstCell) -> dict:
    """Run both arms of one cell; returns its JSON-able payload.

    Module-level (not a closure) so multiprocessing can import it by
    name in spawned workers.
    """
    setup_bytes = _setup_bytes(cell)
    fixed = _run_arm(cell, setup_bytes, cxl=False)
    cxl = _run_arm(cell, setup_bytes, cxl=True)
    payload = {
        "cell": cell.name,
        "seed": cell.seed,
        "hot_remove": cell.hot_remove,
        "setup_bytes": setup_bytes,
        "headroom_kib": cell.headroom_kib,
        "fixed": fixed,
        "cxl": cxl,
    }
    payload["payload"] = json.dumps(payload, sort_keys=True)
    payload["sim_events"] = fixed["sim_events"] + cxl["sim_events"]
    return payload


def run(seed: int = 7, cells: int = 4,
        workers: Optional[int] = None) -> ExperimentResult:
    """Regenerate this artifact; returns the ExperimentResult."""
    specs = tuple(
        BurstCell(name=f"cell{i}", seed=seed * 1_000_003 + i,
                  hot_remove=(i % 2 == 1))
        for i in range(cells)
    )
    payloads = parallel_map(run_cell, specs, workers=workers)

    result = ExperimentResult(
        "burst-absorption",
        "CXL buffer tier vs fixed on-card DRAM under a Fig. 14-style "
        f"mixed burst ({cells} seeded cells)",
    )
    for payload in payloads:
        f, c = payload["fixed"], payload["cxl"]
        tier = c["tier"]
        result.add(
            cell=payload["cell"],
            hot_remove=payload["hot_remove"],
            fixed_completed=f["completed"],
            fixed_ios=f["ios"],
            cxl_completed=c["completed"],
            cxl_ios=c["ios"],
            spills=tier["spills"],
            hit_ratio=tier["hit_ratio"],
            borrowed_peak_kib=c.get("borrowed_peak_bytes", 0) // 1024,
            promotes=tier["promotes"],
            revocations=tier["revocations"],
            sim_events=payload["sim_events"],
        )
    survived = sum(1 for p in payloads if p["cxl"]["completed"])
    died = sum(1 for p in payloads if not p["fixed"]["completed"])
    result.notes.append(
        f"the fixed-DRAM configuration dies on out-of-memory in {died}/"
        f"{len(payloads)} cells while the CXL tier completes {survived}/"
        f"{len(payloads)}; hot-remove cells pin borrow revocation when "
        "the lending slot is surprise-removed mid-burst"
    )
    return result
