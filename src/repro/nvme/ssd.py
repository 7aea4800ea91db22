"""A complete NVMe SSD device model.

The device hangs off a PCIe fabric port, exposes a doorbell BAR,
fetches SQEs over the fabric, executes media operations on the
:class:`~repro.nvme.flash.FlashBackend`, DMAs data to/from the PRP
pages, posts CQEs, and raises MSI-X — the full Fig. 6 device side.

Data integrity: WRITE commands carrying real payload bytes persist them
per-LBA; READ commands over previously-written ranges DMA the stored
bytes back to the exact PRP pages, so end-to-end tests can verify that
BM-Store's LBA remapping and DMA routing never corrupt or misplace
data.  Performance runs elide payloads and only timing is charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..sim.units import PAGE_SIZE
from ..pcie.config_space import ConfigSpace
from ..pcie.fabric import PCIeFabric, Port
from ..pcie.function import PCIeFunction
from ..sim import Event, SimulationError, Simulator, StreamFactory
from ..sim.units import sec
from .command import SQE, alloc_cqe
from .firmware import FirmwareImage, FirmwareSlots
from .flash import FlashBackend, FlashProfile, P4510_PROFILE
from .namespace import Namespace
from .prp import page_spans, prp_list_bytes, walk_prps
from .queues import CompletionQueue, QueuePair, SubmissionQueue
from .spec import (
    CQE_BYTES,
    DOORBELL_STRIDE,
    LBA_BYTES,
    SQE_BYTES,
    AdminOpcode,
    IOOpcode,
    StatusCode,
)

__all__ = ["NVMeSSD", "SSDStats", "DEFAULT_FIRMWARE"]


class _Removed(Exception):
    """Unwinds an execution whose drive was surprise-removed."""

# controller-internal command decode / scheduling cost
DECODE_NS = 150
DOORBELL_REGION_OFFSET = 0x1000

DEFAULT_FIRMWARE = FirmwareImage(version="VDV10131", size_bytes=2 * 1024 * 1024,
                                 activation_ns=sec(6.5))


@dataclass
class SSDStats:
    """Per-drive operation, byte, error, and inflight counters."""
    read_ops: int = 0
    write_ops: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    admin_ops: int = 0
    errors: int = 0
    inflight: int = 0


class _DoorbellRegion:
    """BAR0 doorbell window: writes wake the owning SSD's queue workers."""

    def __init__(self, ssd: "NVMeSSD", access_ns: int = 20):
        self.ssd = ssd
        self._access_ns = access_ns

    @property
    def access_ns(self) -> int:
        return self._access_ns

    def mem_write(self, addr: int, length: int, data) -> None:
        offset = addr - self.ssd.bar0_base - DOORBELL_REGION_OFFSET
        slot, kind = divmod(offset // DOORBELL_STRIDE, 2)
        if kind == 0:
            self.ssd._on_sq_doorbell(slot)
        # CQ head doorbells only free ring space; index state is shared.

    def mem_read(self, addr: int, length: int):
        return None


class NVMeSSD:
    """One physical NVMe drive on a PCIe fabric."""

    _next_bar_slot = 0

    def __init__(
        self,
        sim: Simulator,
        fabric: PCIeFabric,
        streams: StreamFactory,
        name: str = "ssd0",
        profile: FlashProfile = P4510_PROFILE,
        lanes: int = 4,
        bar0_base: Optional[int] = None,
        firmware: FirmwareImage = DEFAULT_FIRMWARE,
    ):
        self.sim = sim
        self.name = name
        self._cmd_pname = name + ".cmd"
        self.profile = profile
        self.port: Port = fabric.attach(name, lanes=lanes)
        self.flash = FlashBackend(sim, profile, streams.stream(f"{name}.flash"), name=f"{name}.flash")
        self.firmware = FirmwareSlots(active=firmware)
        self.stats = SSDStats()
        self.namespaces: dict[int, Namespace] = {
            1: Namespace(nsid=1, num_blocks=profile.capacity_bytes // LBA_BYTES)
        }
        self._queues: dict[int, QueuePair] = {}
        self._blocks: dict[int, bytes] = {}
        self._data_ranges_written = False
        #: failure injection: LBAs whose media reads fail (grown defects)
        self.bad_lbas: set[int] = set()
        #: the world's FaultInjector (hook points ssd.media / ssd.fetch /
        #: ssd.firmware); None = dormant, zero-cost
        self.faults = sim.faults
        #: the world's CheckContext (prp checker); None = dormant, zero-cost
        self.checks = sim.checker("prp")
        # firmware-activation gate
        self._paused = False
        #: bumped on every surprise removal; an execution started in an
        #: older era belongs to a drive that has since been pulled
        self._era = 0
        self._resume_event: Optional[Event] = None
        self._drained_event: Optional[Event] = None
        self.temperature_k = 310  # SMART health data
        self.power_cycles = 1

        if bar0_base is None:
            bar0_base = 0x10_0000_0000 + NVMeSSD._next_bar_slot * 0x100_0000
            NVMeSSD._next_bar_slot += 1
        self.bar0_base = bar0_base
        self.bar0_size = 0x4000
        self.function = PCIeFunction(
            routing_id=0x100 + NVMeSSD._next_bar_slot,
            config=ConfigSpace(vendor_id=0x8086, device_id=0x0A54,
                               bar_sizes={0: self.bar0_size}),
            name=f"{name}.fn",
        )
        self.function.config.enable()
        self.function.map_bar(self.port, 0, self.bar0_base, _DoorbellRegion(self))

    # ------------------------------------------------------------------ setup
    def doorbell_addr(self, qid: int, is_cq: bool = False) -> int:
        return (
            self.bar0_base
            + DOORBELL_REGION_OFFSET
            + (2 * qid + (1 if is_cq else 0)) * DOORBELL_STRIDE
        )

    def attach_queue_pair(self, qid: int, sq: SubmissionQueue, cq: CompletionQueue) -> QueuePair:
        """Register an SQ/CQ pair (models CREATE_IO_SQ/CQ register effects)."""
        qp = QueuePair(
            sq=sq,
            cq=cq,
            sq_doorbell=self.doorbell_addr(qid, is_cq=False),
            cq_doorbell=self.doorbell_addr(qid, is_cq=True),
        )
        self._queues[qid] = qp
        return qp

    def detach_queue_pair(self, qid: int) -> None:
        self._queues.pop(qid, None)

    @property
    def queue_ids(self) -> list[int]:
        return sorted(self._queues)

    def on_removed(self) -> None:
        """The drive was pulled from its slot.  Executions in flight stop
        at their next DMA and complete nothing: the PRP lists and rings
        they point at belong to a host that already failed them."""
        self._era += 1

    def _check_present(self, era: int) -> None:
        if self._era != era:
            raise _Removed

    # --------------------------------------------------------------- doorbell
    def _on_sq_doorbell(self, qid: int) -> None:
        qp = self._queues.get(qid)
        if qp is None:
            return
        sq = qp.sq
        spawn = self.sim.spawn
        while True:
            # batch-consume every published SQE before touching the
            # shadow-doorbell state: one doorbell pays for the whole burst
            while sq.tail != sq.head:
                addr = sq.consume_addr()
                spawn(self._execute(qid, qp, addr), name=self._cmd_pname)
            # shadow-doorbell rings re-check after arming the wakeup so
            # entries published without an MMIO are never stranded
            if not (qp.sq.shadow_mode and qp.sq.rearm_doorbell()):
                break

    # --------------------------------------------------------------- command
    def _execute(self, qid: int, qp: QueuePair, sqe_addr: int):
        if self._paused:
            yield self._wait_resume()
        self.stats.inflight += 1
        dropped = False
        tr = qp.translation
        era = self._era
        try:
            fetch_addr = sqe_addr if tr is None else tr.tag(sqe_addr)
            sqe = yield self.port.mem_read(fetch_addr, SQE_BYTES)
            self._check_present(era)
            if not isinstance(sqe, SQE):
                raise SimulationError(f"{self.name}: no SQE at {sqe_addr:#x}")
            yield self.sim.timeout(DECODE_NS)
            self._check_present(era)
            if (
                qid != 0
                and self.faults is not None
                and self.faults.drop_command(self.name, span=sqe.span)
            ):
                # injected command loss: the drive swallows the command
                # and never posts a CQE; only a host-side timeout recovers
                dropped = True
                status, result = int(StatusCode.SUCCESS), 0
            elif qid == 0:
                status, result = yield from self._admin(sqe)
            else:
                status, result = yield from self._io(sqe, tr, era)
        except _Removed:
            # the drive was pulled mid-command: no further DMA, no CQE —
            # the host side already failed the command (or will time it
            # out, on a passthrough queue)
            return
        finally:
            self.stats.inflight -= 1
            self._check_drained()
        if dropped or self._era != era:
            return
        yield from self._complete(qid, qp, sqe, status, result)

    def _complete(self, qid: int, qp: QueuePair, sqe: SQE, status: int, result: int):
        tr = qp.translation
        cqe = alloc_cqe(sqe.cid, status, qp.sq.head, qid, result)
        if status != int(StatusCode.SUCCESS):
            self.stats.errors += 1
        # DMA the CQE into the completion ring, then make it host-visible.
        target = qp.cq.slot_addr(qp.cq.tail)
        if tr is not None:
            target = tr.tag(target)
        yield self.port.mem_write(target, CQE_BYTES, None)
        qp.cq.post_slot(cqe)
        if qp.cq.irq_vector is not None:
            if tr is not None:
                qp.cq.note_cqe(self.sim, tr.fire_irq(qp.cq))
            else:
                qp.cq.note_cqe(self.sim, self._fire_vector(qp.cq))

    def _fire_vector(self, cq):
        def fire() -> None:
            self.function.msix.post_vector(self.port, cq.irq_vector)
        return fire

    # ------------------------------------------------------------------- I/O
    def _io(self, sqe: SQE, translation, era: int):
        ns = self.namespaces.get(sqe.nsid)
        if ns is None:
            return int(StatusCode.INVALID_NAMESPACE), 0
        opcode = sqe.opcode
        span = sqe.span
        if opcode == int(IOOpcode.FLUSH):
            yield from self.flash.flush()
            if span is not None:
                span.stamp("ssd_dma", self.sim.now)
            return int(StatusCode.SUCCESS), 0
        nblocks = sqe.num_blocks
        # passthrough queues carry guest LBAs: bound-check against the
        # translation window, then shift by its base.  The SQE is shared
        # host state — never mutate it, keep the shifted LBA local.
        slba = sqe.slba
        if translation is not None:
            if slba + nblocks > translation.num_blocks:
                return int(StatusCode.LBA_OUT_OF_RANGE), 0
            slba = slba + translation.lba_offset
        if not ns.contains(slba, nblocks):
            return int(StatusCode.LBA_OUT_OF_RANGE), 0
        length = nblocks * ns.block_bytes
        pages = yield from self._resolve_prps(sqe, length, translation, era)

        if self.faults is not None:
            stall = self.faults.media_stall_ns(self.name, span=span)
            if stall:
                yield self.sim.timeout(stall)
            forced = self.faults.media_error(
                self.name, opcode, sqe.slba, nblocks, span=span
            )
            if forced is not None:
                # the failing media op still burns its access time
                if opcode == int(IOOpcode.WRITE):
                    yield from self.flash.write(length)
                else:
                    yield from self.flash.read(length)
                return forced, 0

        if opcode == int(IOOpcode.READ):
            if self.bad_lbas and any(
                (slba + i) in self.bad_lbas for i in range(nblocks)
            ):
                # grown media defect: the ECC retry burns time, then fails
                yield from self.flash.read(length)
                return int(StatusCode.DATA_TRANSFER_ERROR), 0
            yield from self.flash.read(length)
            payload = self._load_blocks(slba, nblocks)
            yield from self._dma_out(pages, length, payload, era)
            if span is not None:
                span.stamp("ssd_dma", self.sim.now)
            self.stats.read_ops += 1
            self.stats.read_bytes += length
            return int(StatusCode.SUCCESS), 0

        if opcode == int(IOOpcode.WRITE):
            payload = yield from self._dma_in(pages, length, sqe.payload is not None, era)
            if sqe.payload is not None:
                payload = sqe.payload  # authoritative copy from the submitter
            if payload is not None:
                self._store_blocks(slba, nblocks, payload)
            yield from self.flash.write(length)
            if span is not None:
                span.stamp("ssd_dma", self.sim.now)
            self.stats.write_ops += 1
            self.stats.write_bytes += length
            return int(StatusCode.SUCCESS), 0

        if opcode in (int(IOOpcode.WRITE_ZEROES), int(IOOpcode.DSM)):
            for lba in range(slba, slba + nblocks):
                self._blocks.pop(lba, None)
            return int(StatusCode.SUCCESS), 0

        return int(StatusCode.INVALID_OPCODE), 0

    def _resolve_prps(self, sqe: SQE, length: int, translation, era: int):
        list_bytes = prp_list_bytes(sqe.prp1, length)
        prp_list = None
        if list_bytes:
            list_addr = sqe.prp2
            if translation is not None:
                list_addr = translation.tag(list_addr)
            prp_list = yield self.port.mem_read(list_addr, list_bytes)
            # a list read that straddled a removal may hold a recycled page
            self._check_present(era)
        pages = walk_prps(sqe.prp1, sqe.prp2, length, prp_list)
        if self.checks is not None:
            self.checks.on_prp_chain(
                pages, length, span=sqe.span,
                memory_name=None, where=self.name,
            )
        if translation is not None:
            # guest PRPs name host pages: tag each with the function id
            # so the engine's root space routes the TLPs out the front
            pages = translation.tag_pages(pages)
        return pages

    def _dma_out(self, pages: Sequence[int], length: int, payload: Optional[bytes],
                 era: int):
        """DMA data toward the PRP pages (device -> memory)."""
        if payload is None:
            self._check_present(era)
            yield self.port.mem_write(pages[0], length, None)
            return
        for page_addr, offset, chunk in page_spans(pages, length):
            self._check_present(era)
            yield self.port.mem_write(page_addr, chunk, payload[offset : offset + chunk])

    def _dma_in(self, pages: Sequence[int], length: int, want_data: bool, era: int):
        """DMA data from the PRP pages (memory -> device)."""
        if not want_data:
            self._check_present(era)
            yield self.port.mem_read(pages[0], length)
            return None
        out = bytearray()
        for page_addr, _, chunk in page_spans(pages, length):
            self._check_present(era)
            data = yield self.port.mem_read(page_addr, chunk)
            out += data if isinstance(data, (bytes, bytearray)) else bytes(chunk)
        return bytes(out)

    # -------------------------------------------------------------- block data
    def _store_blocks(self, slba: int, nblocks: int, payload: bytes) -> None:
        self._data_ranges_written = True
        for i in range(nblocks):
            chunk = payload[i * LBA_BYTES : (i + 1) * LBA_BYTES]
            self._blocks[slba + i] = chunk.ljust(LBA_BYTES, b"\0")

    def _load_blocks(self, slba: int, nblocks: int) -> Optional[bytes]:
        if not self._data_ranges_written:
            return None
        if not any((slba + i) in self._blocks for i in range(nblocks)):
            return None
        return b"".join(
            self._blocks.get(slba + i, bytes(LBA_BYTES)) for i in range(nblocks)
        )

    # ------------------------------------------------------------------ admin
    def _admin(self, sqe: SQE):
        self.stats.admin_ops += 1
        opcode = sqe.opcode
        if opcode == int(AdminOpcode.IDENTIFY):
            page = {
                "model": self.profile.name,
                "firmware": self.firmware.active.version,
                "capacity_blocks": self.namespaces[1].num_blocks,
                "namespaces": sorted(self.namespaces),
            }
            if sqe.prp1:
                yield self.port.mem_write(sqe.prp1, PAGE_SIZE, None)
                self._identify_sink(sqe.prp1, page)
            return int(StatusCode.SUCCESS), 0
        if opcode == int(AdminOpcode.GET_LOG_PAGE):
            log = self.health_log()
            if sqe.prp1:
                yield self.port.mem_write(sqe.prp1, 512, None)
                self._identify_sink(sqe.prp1, log)
            return int(StatusCode.SUCCESS), 0
        if opcode == int(AdminOpcode.FIRMWARE_DOWNLOAD):
            nbytes = (sqe.cdw10 + 1) * 4  # NUMD: dword count, 0's based
            yield self.port.mem_read(sqe.prp1, nbytes)
            version = sqe.payload.decode() if isinstance(sqe.payload, bytes) else str(sqe.payload)
            self.firmware.download_chunk(nbytes, version)
            return int(StatusCode.SUCCESS), 0
        if opcode == int(AdminOpcode.FIRMWARE_COMMIT):
            slot = sqe.cdw10 & 0x7
            action = (sqe.cdw10 >> 3) & 0x7
            image = sqe.payload
            if isinstance(image, FirmwareImage):
                self.firmware.commit(slot, image)
            if action >= 2:  # activate (with reset)
                yield from self._activate_firmware(slot)
            return int(StatusCode.SUCCESS), 0
        if opcode == int(AdminOpcode.ABORT):
            # cdw10 = cid | (sqid << 16).  The command model executes
            # each fetched SQE to completion, so by the time an Abort
            # arrives the target either finished or was dropped; the
            # Abort itself always succeeds (result 1 = not found).
            yield self.sim.timeout(DECODE_NS)
            return int(StatusCode.SUCCESS), 1
        if opcode in (int(AdminOpcode.CREATE_IO_SQ), int(AdminOpcode.CREATE_IO_CQ),
                      int(AdminOpcode.DELETE_IO_SQ), int(AdminOpcode.DELETE_IO_CQ),
                      int(AdminOpcode.SET_FEATURES), int(AdminOpcode.GET_FEATURES)):
            yield self.sim.timeout(DECODE_NS)
            return int(StatusCode.SUCCESS), 0
        if opcode == int(AdminOpcode.NS_MANAGEMENT):
            yield self.sim.timeout(DECODE_NS)
            return int(StatusCode.SUCCESS), 0
        return int(StatusCode.INVALID_OPCODE), 0

    def _identify_sink(self, addr: int, obj) -> None:
        """Park structured identify/log data for the requester to load."""
        self._last_admin_payloads = getattr(self, "_last_admin_payloads", {})
        self._last_admin_payloads[addr] = obj

    def admin_payload_at(self, addr: int):
        return getattr(self, "_last_admin_payloads", {}).get(addr)

    def health_log(self) -> dict:
        return {
            "temperature_k": self.temperature_k,
            "power_cycles": self.power_cycles,
            "read_ops": self.stats.read_ops,
            "write_ops": self.stats.write_ops,
            "errors": self.stats.errors,
            "firmware": self.firmware.active.version,
        }

    # ------------------------------------------------------- firmware activate
    def _activate_firmware(self, slot: int):
        """Pause, drain, reprogram (activation_ns), resume."""
        self._paused = True
        if self.stats.inflight > 1:  # this command itself is in flight
            self._drained_event = self.sim.event(name=f"{self.name}.drained")
            yield self._drained_event
        image = self.firmware.slots.get(slot)
        activation = image.activation_ns if image else DEFAULT_FIRMWARE.activation_ns
        if self.faults is not None:
            activation += self.faults.firmware_stall_ns(self.name)
        yield self.sim.timeout(activation)
        self.firmware.activate(slot)
        self.power_cycles += 1
        self._paused = False
        resume, self._resume_event = self._resume_event, None
        if resume is not None:
            resume.succeed()
        # pick up anything that arrived while paused
        for qid, qp in list(self._queues.items()):
            self._on_sq_doorbell(qid)

    def _wait_resume(self) -> Event:
        if self._resume_event is None:
            self._resume_event = self.sim.event(name=f"{self.name}.resume")
        return self._resume_event

    def _check_drained(self) -> None:
        if self._drained_event is not None and self.stats.inflight <= 1:
            ev, self._drained_event = self._drained_event, None
            ev.succeed()

    # ------------------------------------------------------------------ misc
    @property
    def is_paused(self) -> bool:
        return self._paused

    def block_data(self, lba: int) -> Optional[bytes]:
        """Test hook: raw stored bytes of one LBA."""
        return self._blocks.get(lba)
