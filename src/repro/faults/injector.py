"""Arms a :class:`FaultPlan` into a simulated world.

The injector is the only live object in the fault layer.  A world arms
it on its simulator (:meth:`~repro.sim.Simulator.arm`), and each part
caches ``sim.faults`` when it is constructed.  Components expose
**named hook points** that stay dormant (``self.faults is None`` — one
attribute test, no allocation, no events) in an unarmed world:

========================  ==========================================
hook point                faults delivered
========================  ==========================================
``ssd.media``             media_error, die_stall   (``DriveCommand._walk_prps``)
``ssd.fetch``             cmd_drop                 (``DriveCommand._decoded``)
``ssd.firmware``          firmware_stall           (``NVMeSSD._activate_firmware``)
``engine.dispatch``       engine_stall             (``TargetController.dispatch``)
``engine.backend``        hot_remove               (``BMSEngine.surprise_remove``)
``pcie.link``             link_flap, width_degrade (``pcie.fabric.Port``)
========================  ==========================================

Timeline faults (link flaps, width degrades, hot removes) run as sim
processes started by :meth:`start`, which first rejects a plan whose
targets the world lacks; per-command faults are pulled by the datapath
at the hook points.  Every injected fault increments the
``faults_injected{kind,target}`` observability counter, is noted on
the in-flight :class:`~repro.obs.spans.IOSpan` when one is present,
and is logged to the bound BMS-Controller's fault log (visible out of
band via NVMe-MI ``GET_FAULT_LOG``).
"""

from __future__ import annotations

from typing import Optional

from ..nvme.spec import IOOpcode
from ..sim import SimulationError, Simulator
from .plan import FaultPlan, FaultSpec

__all__ = ["FaultInjector"]


class _Armed:
    """Per-spec mutable state: remaining firing budget."""

    __slots__ = ("spec", "remaining")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.remaining = spec.count if spec.count > 0 else -1  # -1 = unlimited

    def take(self) -> bool:
        if self.remaining == 0:
            return False
        if self.remaining > 0:
            self.remaining -= 1
        return True


def _in_window(spec: FaultSpec, now: int) -> bool:
    if now < spec.at_ns:
        return False
    return not spec.duration_ns or now < spec.at_ns + spec.duration_ns


def _matches(spec: FaultSpec, name: str) -> bool:
    return not spec.target or spec.target == name


class FaultInjector:
    def __init__(self, sim: Simulator, plan: FaultPlan):
        self.sim = sim
        self.plan = plan
        by_kind = lambda k: [s for s in plan.specs if s.kind == k]
        self._media = [_Armed(s) for s in by_kind("media_error")]
        self._die_stalls = by_kind("die_stall")
        self._drops = [_Armed(s) for s in by_kind("cmd_drop")]
        self._fw = [_Armed(s) for s in by_kind("firmware_stall")]
        self._engine_stalls = by_kind("engine_stall")
        self._timeline = [
            s for s in plan.specs
            if s.kind in ("link_flap", "width_degrade", "hot_remove")
        ]
        self.engine = None
        self.controller = None
        self._fabrics: list = []
        self.injected = 0
        self._started = False

    # ------------------------------------------------------------ timeline
    def start(self, fabrics, engine=None, controller=None) -> None:
        """Launch the timeline processes against the world's PCIe
        ``fabrics`` and BMS ``engine``/``controller`` (idempotent).

        Raises ValueError, before anything runs, when a timeline fault
        names a port no fabric has, or needs an engine slot the world
        lacks."""
        if self._started:
            return
        self._fabrics = list(fabrics)
        for spec in self._timeline:
            if spec.kind != "hot_remove":
                self._port(spec.target)
            elif engine is None:
                raise ValueError("hot_remove fault needs a BMS engine; "
                                 "this world has none")
            elif not 0 <= int(spec.target) < len(engine.adaptor.slots):
                raise ValueError(f"hot_remove fault names backend slot "
                                 f"{spec.target}; the engine has "
                                 f"{len(engine.adaptor.slots)}")
        self.engine = engine
        self.controller = controller
        self._started = True
        for spec in self._timeline:
            self.sim.spawn(self._timeline_proc(spec), name=f"fault.{spec.kind}")

    # ------------------------------------------------------------ recording
    def _record(self, kind: str, target: str, span=None) -> None:
        self.injected += 1
        self.sim.obs.counter("faults_injected", kind=kind, target=target).inc()
        if span is not None:
            span.note_fault(kind)
        if self.controller is not None:
            self.controller.note_fault(kind, target)

    # --------------------------------------------------- hook: ssd.media
    def media_stall_ns(self, ssd_name: str, span=None) -> int:
        """Extra flash latency to charge this command (die_stall)."""
        now = self.sim.now
        total = 0
        for spec in self._die_stalls:
            if _matches(spec, ssd_name) and _in_window(spec, now):
                total += spec.stall_ns
        if total:
            self._record("die_stall", ssd_name, span)
        return total

    def media_error(
        self, ssd_name: str, opcode: int, slba: int, nblocks: int, span=None,
    ) -> Optional[int]:
        """NVMe status to fail this command with, or None."""
        now = self.sim.now
        for armed in self._media:
            spec = armed.spec
            if armed.remaining == 0 or not _matches(spec, ssd_name):
                continue
            if not _in_window(spec, now):
                continue
            if spec.op == "read" and opcode != int(IOOpcode.READ):
                continue
            if spec.op == "write" and opcode != int(IOOpcode.WRITE):
                continue
            if spec.lba >= 0 and not (
                spec.lba < slba + nblocks and slba < spec.lba + spec.nblocks
            ):
                continue
            armed.take()
            self._record("media_error", ssd_name, span)
            return spec.status
        return None

    # --------------------------------------------------- hook: ssd.fetch
    def drop_command(self, ssd_name: str, span=None) -> bool:
        """True = swallow the command: no CQE is ever posted."""
        now = self.sim.now
        for armed in self._drops:
            spec = armed.spec
            if armed.remaining == 0 or not _matches(spec, ssd_name):
                continue
            if not _in_window(spec, now):
                continue
            armed.take()
            self._record("cmd_drop", ssd_name, span)
            return True
        return False

    # ------------------------------------------------ hook: ssd.firmware
    def firmware_stall_ns(self, ssd_name: str) -> int:
        total = 0
        for armed in self._fw:
            spec = armed.spec
            if armed.remaining == 0 or not _matches(spec, ssd_name):
                continue
            armed.take()
            total += spec.stall_ns
        if total:
            self._record("firmware_stall", ssd_name)
        return total

    # ------------------------------------------- hook: engine.dispatch
    def engine_stall_ns(self, span=None) -> int:
        now = self.sim.now
        total = 0
        for spec in self._engine_stalls:
            if _in_window(spec, now):
                total += spec.stall_ns
        if total:
            self._record("engine_stall", "engine", span)
        return total

    # ------------------------------------------------------- timeline procs
    def _port(self, name: str):
        for fabric in self._fabrics:
            try:
                return fabric.port(name)
            except SimulationError:
                continue
        raise ValueError(f"fault plan references unknown PCIe port {name!r}")

    def _timeline_proc(self, spec: FaultSpec):
        if spec.at_ns > self.sim.now:
            yield self.sim.timeout(spec.at_ns - self.sim.now)
        if spec.kind == "link_flap":
            self._port(spec.target).link_down(spec.duration_ns)
            self._record("link_flap", spec.target)
        elif spec.kind == "width_degrade":
            port = self._port(spec.target)
            original = port.lanes
            port.set_lanes(max(1, spec.lanes))
            self._record("width_degrade", spec.target)
            if spec.duration_ns:
                yield self.sim.timeout(spec.duration_ns)
                port.set_lanes(original)
        elif spec.kind == "hot_remove":
            slot_id = int(spec.target)
            removed = self.engine.surprise_remove(slot_id)
            self._record("hot_remove", spec.target)
            if spec.duration_ns and removed is not None:
                yield self.sim.timeout(spec.duration_ns)
                if self.controller is not None:
                    # drive re-seated; the controller watchdog notices the
                    # staged replacement and re-attaches the namespace
                    self.controller.stage_replacement(slot_id, removed)
                else:
                    self.engine.adaptor.slot_for(slot_id).attach_ssd(removed)
