"""BMS-Controller: the ARM-SoC management plane of BM-Store.

Everything the cloud vendor does without touching the host OS lives
here (paper §IV-D):

* **out-of-band management** — an MCTP endpoint + NVMe-MI protocol
  analyzer receive commands from the remote console over PCIe VDMs;
* **I/O monitor** — reads the engine's per-function counters over AXI;
* **hot-upgrade** — downloads SSD firmware in the background, then
  pauses/drains the back-end, stores the I/O context, activates, and
  resumes — tenants see a pause but never an error;
* **hot-plug** — replaces a faulty back-end drive while the front-end
  NVMe identity (the tenant's logical drive) survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..mgmt.mctp import MCTPEndpoint
from ..mgmt.nvme_mi import MCTP_TYPE_NVME_MI, MIOpcode, MIRequest, MIResponse, MIStatus
from ..nvme.command import SQE
from ..nvme.firmware import FirmwareImage
from ..nvme.spec import AdminOpcode, StatusCode
from ..nvme.ssd import NVMeSSD
from ..pcie.tlp import VendorDefinedMessage
from ..sim import Event, SimulationError, Simulator
from ..sim.units import ms, sec
from .engine import BMSEngine
from .hooks import run_handler
from .qos import QoSLimits
from .target_controller import AdminRequest

__all__ = ["ControllerTimings", "UpgradeReport", "HotPlugReport", "BMSController"]

#: MCTP endpoint id of the BMS-Controller
BMS_EID = 0x1D


@dataclass(frozen=True)
class ControllerTimings:
    """ARM SoC software costs."""

    command_processing_ns: int = 20_000  # per management command
    upgrade_pre_ns: int = ms(60)  # quiesce + context store
    upgrade_post_ns: int = ms(40)  # context reload + resume
    hotplug_pre_ns: int = ms(50)
    hotplug_post_ns: int = ms(50)
    download_chunk_bytes: int = 256 * 1024


@dataclass
class UpgradeReport:
    """Timings and outcome of one firmware hot-upgrade (Table IX)."""
    ssd_id: int
    version: str
    total_ns: int = 0
    io_pause_ns: int = 0
    processing_ns: int = 0
    ok: bool = False


@dataclass
class HotPlugReport:
    """Outcome of one hot-plug replacement (identity preserved?)."""
    ssd_id: int
    io_pause_ns: int = 0
    front_end_preserved: bool = True
    ok: bool = False


class BMSController:
    """The ARM management co-processor."""

    def __init__(
        self,
        engine: BMSEngine,
        timings: ControllerTimings = ControllerTimings(),
        name: str = "bmsc",
    ):
        self.sim: Simulator = engine.sim
        self.engine = engine
        self.timings = timings
        self.name = name
        self.upgrade_reports: list[UpgradeReport] = []
        self.hotplug_reports: list[HotPlugReport] = []
        self._staged_replacements: dict[int, NVMeSSD] = {}
        self._monitor_history: list[dict] = []
        self._monitor_task = None
        self._watchdog_task = None
        #: out-of-band fault visibility: injected faults and recoveries
        self.fault_log: list[dict] = []
        self.recoveries = 0
        self._image_buffer = engine.chip_memory.alloc(timings.download_chunk_bytes)

        # MCTP endpoint: VDMs arriving at the engine's front port are
        # the physical layer; responses go back route-to-root.
        self.mctp = MCTPEndpoint(
            self.sim, BMS_EID, transmit=self._vdm_transmit, name=f"{name}.mctp"
        )
        self.mctp.on_message(MCTP_TYPE_NVME_MI, self._on_mi_message)
        engine.front_port.on_vdm(self._on_vdm)

        # drain in-band admin commands the engine forwards (tenants may
        # probe, but management operations are vendor-only)
        self.sim.spawn(self._inband_admin_loop(), name=f"{name}.inband")

    # --------------------------------------------------------- MCTP plumbing
    def _vdm_transmit(self, dst_eid: int, raw: bytes) -> Event:
        vdm = VendorDefinedMessage(
            requester_id=0, payload=raw, route_to_root=True
        )
        return self.engine.front_port.send_vdm(vdm)

    def _on_vdm(self, vdm: VendorDefinedMessage) -> None:
        self.mctp.receive_packet(vdm.payload)

    # ----------------------------------------------------- NVMe-MI dispatch
    def _on_mi_message(self, src_eid: int, raw: bytes) -> None:
        request = MIRequest.from_bytes(raw)
        self.sim.spawn(self._serve(src_eid, request), name=f"{self.name}.mi",
                       delay=self.timings.command_processing_ns)

    def _serve(self, src_eid: int, request: MIRequest):
        try:
            status, body = yield from self._execute(request)
        except SimulationError as exc:
            from ..checks.runtime import InvariantViolation

            if isinstance(exc, InvariantViolation):
                raise  # checker violations surface, never become MI errors
            status, body = MIStatus.INVALID_PARAMETER, {"error": str(exc)}
        response = MIResponse(request.request_id, int(status), body)
        yield self.mctp.send_message(src_eid, MCTP_TYPE_NVME_MI, response.to_bytes())

    def _execute(self, request: MIRequest):
        op = request.opcode
        p = request.params
        if op == int(MIOpcode.HEALTH_STATUS_POLL):
            body = yield from self._health_poll()
            return MIStatus.SUCCESS, body
        if op == int(MIOpcode.CONTROLLER_LIST):
            return MIStatus.SUCCESS, {
                "physical_functions": len(self.engine.sriov.physical_functions),
                "virtual_functions": len(self.engine.sriov.virtual_functions),
            }
        if op == int(MIOpcode.READ_IO_STATS):
            body = yield from self.read_io_stats(p["fn"])
            return MIStatus.SUCCESS, body
        if op == int(MIOpcode.IO_MONITOR_SNAPSHOT):
            body = yield from self.io_monitor_snapshot()
            return MIStatus.SUCCESS, body
        if op == int(MIOpcode.CREATE_NAMESPACE):
            self.engine.create_namespace(
                p["key"], int(p["size_bytes"]), placement=p.get("placement"),
                limits=QoSLimits.from_mi_params(p),
            )
            return MIStatus.SUCCESS, {"key": p["key"]}
        if op == int(MIOpcode.DELETE_NAMESPACE):
            self.engine.delete_namespace(p["key"])
            return MIStatus.SUCCESS, {}
        if op == int(MIOpcode.BIND_NAMESPACE):
            self.engine.bind_namespace(p["key"], int(p["fn"]))
            return MIStatus.SUCCESS, {}
        if op == int(MIOpcode.UNBIND_NAMESPACE):
            self.engine.unbind_namespace(p["key"])
            return MIStatus.SUCCESS, {}
        if op == int(MIOpcode.SET_QOS):
            self.engine.qos.configure(p["key"], QoSLimits.from_mi_params(p) or QoSLimits())
            return MIStatus.SUCCESS, {}
        if op == int(MIOpcode.FIRMWARE_HOT_UPGRADE):
            image = FirmwareImage(
                version=p["version"],
                size_bytes=int(p.get("size_bytes", 2 * 1024 * 1024)),
                activation_ns=sec(float(p.get("activation_s", 6.5))),
            )
            report = yield self.hot_upgrade(int(p["ssd"]), image)
            return (
                MIStatus.SUCCESS if report.ok else MIStatus.INTERNAL_ERROR,
                _report_body(report),
            )
        if op == int(MIOpcode.HOT_PLUG_REPLACE):
            report = yield self.hot_plug(int(p["ssd"]))
            return (
                MIStatus.SUCCESS if report.ok else MIStatus.INTERNAL_ERROR,
                {"io_pause_ms": report.io_pause_ns / 1e6,
                 "front_end_preserved": report.front_end_preserved},
            )
        if op == int(MIOpcode.GET_UPGRADE_REPORT):
            return MIStatus.SUCCESS, {
                "reports": [_report_body(r) for r in self.upgrade_reports]
            }
        if op == int(MIOpcode.GET_FAULT_LOG):
            yield self.sim.timeout(self.engine.timings.monitor_sample_ns)
            slots = [
                {
                    "index": slot.index,
                    "attached": slot.ssd is not None,
                    "inflight": getattr(slot, "inflight", 0),
                }
                for slot in self.engine.adaptor.slots
            ]
            return MIStatus.SUCCESS, {
                "events": list(self.fault_log),
                "slots": slots,
                "recoveries": self.recoveries,
            }
        handler = self.engine.hooks.opcodes["mi"].get(op)
        if handler is not None:
            return (yield from run_handler(handler, p))
        return MIStatus.UNSUPPORTED, {}

    # ------------------------------------------------------------- I/O monitor
    def read_io_stats(self, fn_id: int):
        """Read one function's counters over the AXI bus."""
        base = self.engine.AXI_FN_BASE + (fn_id - 1) * self.engine.AXI_FN_STRIDE
        body = {"fn": fn_id}
        for off, key in self.engine.AXI_FN_FIELDS.items():
            body[key] = yield self.engine.axi.read(base + off)
        return body

    def io_monitor_snapshot(self):
        """Full observability dump: the world's metrics registry.

        Models the paper's I/O monitor export path — the sampling cost
        is charged per metric batch before the snapshot is taken.
        """
        yield self.sim.timeout(self.engine.timings.monitor_sample_ns)
        return self.engine.obs.snapshot()

    def _health_poll(self):
        total = yield self.engine.axi.read(self.engine.AXI_TOTAL_IOS)
        nssd = yield self.engine.axi.read(self.engine.AXI_NUM_SSDS)
        drives = []
        for slot in self.engine.adaptor.slots:
            if slot.ssd is not None:
                drives.append(slot.ssd.health_log())
        return {"total_ios": total, "num_ssds": nssd, "drives": drives}

    def start_monitor(self, period_ns: int, fn_ids: list[int]):
        """Periodic sampling of I/O counters into the history buffer."""
        def loop():
            while True:
                yield self.sim.timeout(period_ns)
                sample = {"t": self.sim.now, "fns": {}}
                for fn_id in fn_ids:
                    sample["fns"][fn_id] = (yield from self.read_io_stats(fn_id))
                self._monitor_history.append(sample)

        self._monitor_task = self.sim.process(loop(), name=f"{self.name}.monitor")
        return self._monitor_task

    @property
    def monitor_history(self) -> list[dict]:
        return self._monitor_history

    # -------------------------------------------------------------- hot-upgrade
    def hot_upgrade(self, ssd_id: int, image: FirmwareImage, slot_number: int = 2) -> Event:
        """Firmware hot-upgrade; event fires with an :class:`UpgradeReport`."""
        done = self.sim.event(name=f"{self.name}.upgrade")
        self.sim.spawn(self._upgrade_proc(ssd_id, image, slot_number, done),
                       name=f"{self.name}.upg")
        return done

    def _admin_roundtrip(self, slot, sqe: SQE) -> Event:
        ev = self.sim.event(name=f"{self.name}.bad")
        slot.forward_admin(sqe, lambda status: ev.succeed(status))
        return ev

    def _upgrade_proc(self, ssd_id: int, image: FirmwareImage, slot_number: int, done: Event):
        report = UpgradeReport(ssd_id=ssd_id, version=image.version)
        t_start = self.sim.now
        slot = self.engine.adaptor.slot_for(ssd_id)

        # phase 1: download the image in the background — I/O still flows
        chunk = self.timings.download_chunk_bytes
        remaining = image.size_bytes
        while remaining > 0:
            take = min(chunk, remaining)
            sqe = SQE(
                opcode=int(AdminOpcode.FIRMWARE_DOWNLOAD), cid=0, nsid=0,
                prp1=self._image_buffer, cdw10=take // 4 - 1,
                payload=image.version.encode(),
            )
            status = yield self._admin_roundtrip(slot, sqe)
            if status != int(StatusCode.SUCCESS):
                report.total_ns = self.sim.now - t_start
                self.upgrade_reports.append(report)
                done.succeed(report)
                return
            remaining -= take

        # phase 2: quiesce — pause forwarding, drain in-flight, store context
        pause_t0 = self.sim.now
        slot.pause()
        yield slot.drain()
        context = slot.io_context()
        yield self.sim.timeout(self.timings.upgrade_pre_ns)

        # phase 3: commit + activate (the drive resets internally)
        sqe = SQE(
            opcode=int(AdminOpcode.FIRMWARE_COMMIT), cid=0, nsid=0,
            cdw10=slot_number | (3 << 3),  # activate immediately
            payload=image,
        )
        status = yield self._admin_roundtrip(slot, sqe)

        # phase 4: reload context and resume tenant I/O
        yield self.sim.timeout(self.timings.upgrade_post_ns)
        reloaded = slot.io_context()
        assert reloaded["sq_tail"] == context["sq_tail"]
        slot.resume()
        pause_t1 = self.sim.now

        report.ok = status == int(StatusCode.SUCCESS)
        report.total_ns = self.sim.now - t_start
        report.io_pause_ns = pause_t1 - pause_t0
        report.processing_ns = self.timings.upgrade_pre_ns + self.timings.upgrade_post_ns
        self.upgrade_reports.append(report)
        done.succeed(report)

    # ----------------------------------------------------------------- hot-plug
    def stage_replacement(self, ssd_id: int, new_ssd: NVMeSSD) -> None:
        """Physically seat the replacement drive for slot ``ssd_id``."""
        self._staged_replacements[ssd_id] = new_ssd

    def hot_plug(self, ssd_id: int) -> Event:
        """Replace the drive in ``ssd_id`` with the staged one."""
        done = self.sim.event(name=f"{self.name}.hotplug")
        self.sim.spawn(self._hotplug_proc(ssd_id, done), name=f"{self.name}.hp")
        return done

    def _hotplug_proc(self, ssd_id: int, done: Event):
        report = HotPlugReport(ssd_id=ssd_id)
        new_ssd = self._staged_replacements.pop(ssd_id, None)
        if new_ssd is None:
            done.succeed(report)
            return
        slot = self.engine.adaptor.slot_for(ssd_id)
        bound_before = {
            key: ens.bound_fn for key, ens in self.engine.namespaces.items()
        }
        pause_t0 = self.sim.now
        slot.pause()
        yield slot.drain()
        yield self.sim.timeout(self.timings.hotplug_pre_ns)
        slot.detach_ssd()
        slot.attach_ssd(new_ssd)
        yield self.sim.timeout(self.timings.hotplug_post_ns)
        slot.resume()
        report.io_pause_ns = self.sim.now - pause_t0
        # transparency check: the tenant's logical drives never changed
        bound_after = {
            key: ens.bound_fn for key, ens in self.engine.namespaces.items()
        }
        report.front_end_preserved = bound_before == bound_after
        report.ok = True
        self.hotplug_reports.append(report)
        done.succeed(report)

    # ------------------------------------------------- fault observation
    FAULT_LOG_CAPACITY = 256

    def note_fault(self, kind: str, target: str) -> None:
        """Record an observed fault (called by the FaultInjector and by
        recovery paths); bounded so long fault storms stay cheap."""
        if len(self.fault_log) < self.FAULT_LOG_CAPACITY:
            self.fault_log.append({"t": self.sim.now, "kind": kind,
                                   "target": target})

    def start_watchdog(self, period_ns: int = ms(20)):
        """Periodic slot-health scan: when a surprise-removed slot has a
        staged replacement seated, drive the re-attach (namespace
        re-attach without disturbing the front end).  Idempotent."""
        if self._watchdog_task is not None:
            return self._watchdog_task

        def loop():
            while True:
                yield self.sim.timeout(period_ns)
                for slot in self.engine.adaptor.slots:
                    if slot.ssd is None and slot.index in self._staged_replacements:
                        yield from self._reseat(slot.index)

        self._watchdog_task = self.sim.process(loop(), name=f"{self.name}.watchdog")
        return self._watchdog_task

    def _reseat(self, ssd_id: int):
        """Recovery from surprise removal: attach the re-seated drive
        back into its slot.  Nothing is in flight (the removal failed
        everything), so no drain is needed — just the hot-plug
        pre/post software costs around the attach."""
        new_ssd = self._staged_replacements.pop(ssd_id, None)
        if new_ssd is None:
            return
        report = HotPlugReport(ssd_id=ssd_id)
        slot = self.engine.adaptor.slot_for(ssd_id)
        pause_t0 = self.sim.now
        slot.pause()
        yield self.sim.timeout(self.timings.hotplug_pre_ns)
        slot.attach_ssd(new_ssd)
        yield self.sim.timeout(self.timings.hotplug_post_ns)
        slot.resume()
        report.io_pause_ns = self.sim.now - pause_t0
        report.ok = True
        self.hotplug_reports.append(report)
        self.recoveries += 1
        self.note_fault("reattach", str(ssd_id))
        self.engine.obs.counter("bmsc_recoveries", slot=str(ssd_id)).inc()

    # --------------------------------------------------------- in-band admin
    def _inband_admin_loop(self):
        """Handle admin commands the Target Controller forwards (step in
        Fig. 3: device management commands go to the BMS-Controller)."""
        while True:
            request: AdminRequest = yield self.target_mailbox.get()
            yield self.sim.timeout(self.timings.command_processing_ns)
            # tenant-visible admin surface is the standard NVMe feature
            # set; vendor management is out-of-band only
            request.respond(StatusCode.INVALID_OPCODE)

    @property
    def target_mailbox(self):
        return self.engine.target_controller.admin_mailbox


def _report_body(report: UpgradeReport) -> dict[str, Any]:
    return {
        "ssd": report.ssd_id,
        "version": report.version,
        "total_s": report.total_ns / 1e9,
        "io_pause_s": report.io_pause_ns / 1e9,
        "processing_ms": report.processing_ns / 1e6,
        "ok": report.ok,
    }
