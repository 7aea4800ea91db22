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
from typing import Optional

from ..sim.units import PAGE_SIZE
from ..pcie.config_space import ConfigSpace
from ..pcie.fabric import PCIeFabric, Port
from ..pcie.function import PCIeFunction
from ..sim import Event, SimulationError, Simulator, StreamFactory, failure
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

__all__ = ["NVMeSSD", "DriveCommand", "SSDStats", "DEFAULT_FIRMWARE"]


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
        timeout = self.sim.timeout
        while True:
            # batch-consume every published SQE before touching the
            # shadow-doorbell state: one doorbell pays for the whole burst
            while sq.tail != sq.head:
                cmd = DriveCommand(self, qid, qp, sq.consume_addr())
                timeout(0).callbacks.append(cmd)
            # shadow-doorbell rings re-check after arming the wakeup so
            # entries published without an MMIO are never stranded
            if not (qp.sq.shadow_mode and qp.sq.rearm_doorbell()):
                break

    def _fire_vector(self, cq):
        def fire() -> None:
            self.function.msix.post_vector(self.port, cq.irq_vector)
        return fire

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
    def block_data(self, lba: int) -> Optional[bytes]:
        """Test hook: raw stored bytes of one LBA."""
        return self._blocks.get(lba)


_SUCCESS = int(StatusCode.SUCCESS)
_READ = int(IOOpcode.READ)
_WRITE = int(IOOpcode.WRITE)
_FLUSH = int(IOOpcode.FLUSH)


class DriveCommand:
    """One command the drive fetched, from its SQE fetch to its CQE.

    Fig. 6 steps ④-⑥ on the device: fetch the SQE, decode, walk the
    PRPs, run the media op, DMA the data, post the CQE and raise MSI-X.
    The state that lives across the waits is these slots.  The record
    itself is the continuation of every event it waits on (a callable
    costs no bound-method object per command in flight): a fresh timer
    by appending to it, anything else through
    :meth:`~repro.sim.Simulator.wait`.  ``step`` is its state, the step
    that runs next.  The order in which the steps schedule their events
    is pinned by the dispatch-order fingerprints
    (``tests/sim/test_dispatch_fingerprint.py``).

    A surprise removal (:meth:`NVMeSSD.on_removed`) stops the command at
    its next DMA; it then completes nothing.  An admin command (qid 0)
    runs :meth:`NVMeSSD._admin`, a generator the record steps itself.
    """

    __slots__ = ("ssd", "qid", "qp", "tr", "era", "sqe", "step",
                 "slba", "length", "pages", "status", "work")

    def __init__(self, ssd: NVMeSSD, qid: int, qp: QueuePair, sqe_addr: int):
        self.ssd = ssd
        self.qid = qid
        self.qp = qp
        #: the SQE's ring address until it is fetched
        self.sqe = sqe_addr
        self.step = DriveCommand._admit
        #: the data path's page spans still to DMA (with a read's
        #: payload), the admin generator, or the CQE being posted
        self.work = None

    def __call__(self, ev: Event) -> None:
        if not ev._ok:
            raise failure(ev)
        try:
            self.step(self, ev._value)
        except _Removed:
            # the drive was pulled mid-command: no further DMA, no CQE —
            # the host side already failed the command (or will time it
            # out, on a passthrough queue)
            self._settle()

    def _settle(self) -> None:
        """The command leaves the media path (done, dropped or removed)."""
        ssd = self.ssd
        ssd.stats.inflight -= 1
        ssd._check_drained()

    # -------------------------------------------------- fetch and decode
    def _admit(self, _value) -> None:
        ssd = self.ssd
        if ssd._paused:
            self.step = DriveCommand._fetch
            ssd.sim.wait(ssd._wait_resume(), self)
        else:
            self._fetch(None)

    def _fetch(self, _value) -> None:
        ssd = self.ssd
        ssd.stats.inflight += 1
        self.tr = tr = self.qp.translation
        self.era = ssd._era
        addr = self.sqe
        self.step = DriveCommand._fetched
        ssd.sim.wait(ssd.port.mem_read(addr if tr is None else tr.tag(addr), SQE_BYTES), self)

    def _fetched(self, sqe) -> None:
        ssd = self.ssd
        ssd._check_present(self.era)
        if not isinstance(sqe, SQE):
            raise SimulationError(f"{ssd.name}: no SQE at {self.sqe:#x}")
        self.sqe = sqe
        self.step = DriveCommand._decoded
        ssd.sim.timeout(DECODE_NS).callbacks.append(self)

    def _decoded(self, _value) -> None:
        ssd = self.ssd
        ssd._check_present(self.era)
        if self.qid == 0:
            self.work = ssd._admin(self.sqe)
            self._admin_step(None)
        elif ssd.faults is not None and ssd.faults.drop_command(
                ssd.name, span=self.sqe.span):
            # injected command loss: the drive swallows the command and
            # never posts a CQE; only a host-side timeout recovers
            self._settle()
        else:
            self._io()

    def _admin_step(self, value) -> None:
        try:
            event = self.work.send(value)
        except StopIteration as stop:
            self.work = None
            self._done(*stop.value)
            return
        self.step = DriveCommand._admin_step
        self.ssd.sim.wait(event, self)

    def _done(self, status: int, result: int = 0) -> None:
        """The media path returned ``status``: complete the command."""
        self._settle()
        if self.ssd._era == self.era:
            self._complete(status, result)

    # ---------------------------------------------------------------- I/O
    def _io(self) -> None:
        ssd = self.ssd
        sqe = self.sqe
        ns = ssd.namespaces.get(sqe.nsid)
        if ns is None:
            self._done(int(StatusCode.INVALID_NAMESPACE))
            return
        if sqe.opcode == _FLUSH:
            self.step = DriveCommand._flushed
            ssd.flash.flush(self)
            return
        nblocks = sqe.num_blocks
        # passthrough queues carry guest LBAs: bound-check against the
        # translation window, then shift by its base.  The SQE is shared
        # host state — never mutate it, keep the shifted LBA local.
        slba = sqe.slba
        tr = self.tr
        if tr is not None:
            if slba + nblocks > tr.num_blocks:
                self._done(int(StatusCode.LBA_OUT_OF_RANGE))
                return
            slba = slba + tr.lba_offset
        if not ns.contains(slba, nblocks):
            self._done(int(StatusCode.LBA_OUT_OF_RANGE))
            return
        self.slba = slba
        self.length = length = nblocks * ns.block_bytes
        list_bytes = prp_list_bytes(sqe.prp1, length)
        if list_bytes:
            list_addr = sqe.prp2
            if tr is not None:
                list_addr = tr.tag(list_addr)
            self.step = DriveCommand._prp_list
            ssd.sim.wait(ssd.port.mem_read(list_addr, list_bytes), self)
        else:
            self._walk_prps(None)

    def _flushed(self, _value) -> None:
        span = self.sqe.span
        if span is not None:
            span.stamp("ssd_dma", self.ssd.sim.now)
        self._done(_SUCCESS)

    def _prp_list(self, prp_list) -> None:
        # a list read that straddled a removal may hold a recycled page
        self.ssd._check_present(self.era)
        self._walk_prps(prp_list)

    def _walk_prps(self, prp_list) -> None:
        ssd = self.ssd
        sqe = self.sqe
        pages = walk_prps(sqe.prp1, sqe.prp2, self.length, prp_list)
        if ssd.checks is not None:
            ssd.checks.on_prp_chain(
                pages, self.length, span=sqe.span,
                memory_name=None, where=ssd.name,
            )
        if self.tr is not None:
            # guest PRPs name host pages: tag each with the function id
            # so the engine's root space routes the TLPs out the front
            pages = self.tr.tag_pages(pages)
        self.pages = pages
        faults = ssd.faults
        if faults is None:
            self._media()
            return
        stall = faults.media_stall_ns(ssd.name, span=sqe.span)
        if stall:
            self.step = DriveCommand._injected
            ssd.sim.timeout(stall).callbacks.append(self)
        else:
            self._injected(None)

    def _injected(self, _value) -> None:
        ssd = self.ssd
        sqe = self.sqe
        forced = ssd.faults.media_error(
            ssd.name, sqe.opcode, sqe.slba, sqe.num_blocks, span=sqe.span
        )
        if forced is None:
            self._media()
            return
        # the failing media op still burns its access time
        self.status = forced
        self.step = DriveCommand._failed
        if sqe.opcode == _WRITE:
            ssd.flash.write(self.length, self)
        else:
            ssd.flash.read(self.length, self)

    def _failed(self, _value) -> None:
        self._done(self.status)

    def _media(self) -> None:
        ssd = self.ssd
        sqe = self.sqe
        opcode = sqe.opcode
        if opcode == _READ:
            if ssd.bad_lbas and any(
                (self.slba + i) in ssd.bad_lbas for i in range(sqe.num_blocks)
            ):
                # grown media defect: the ECC retry burns time, then fails
                self.status = int(StatusCode.DATA_TRANSFER_ERROR)
                self.step = DriveCommand._failed
            else:
                self.step = DriveCommand._read
            ssd.flash.read(self.length, self)
        elif opcode == _WRITE:
            if sqe.payload is None:
                ssd._check_present(self.era)
                self.step = DriveCommand._gathered
                ssd.sim.wait(ssd.port.mem_read(self.pages[0], self.length), self)
            else:
                self.work = list(page_spans(self.pages, self.length))[::-1]
                self._gather()
        elif opcode in (int(IOOpcode.WRITE_ZEROES), int(IOOpcode.DSM)):
            for lba in range(self.slba, self.slba + sqe.num_blocks):
                ssd._blocks.pop(lba, None)
            self._done(_SUCCESS)
        else:
            self._done(int(StatusCode.INVALID_OPCODE))

    # ------------------------------------------- read: media, then DMA out
    def _read(self, _value) -> None:
        ssd = self.ssd
        payload = ssd._load_blocks(self.slba, self.sqe.num_blocks)
        if payload is None:
            ssd._check_present(self.era)
            self.step = DriveCommand._scattered
            ssd.sim.wait(ssd.port.mem_write(self.pages[0], self.length, None), self)
        else:
            self.work = (list(page_spans(self.pages, self.length))[::-1], payload)
            self._scatter(None)

    def _scatter(self, _value) -> None:
        """DMA the next page span toward the PRP pages (device -> memory)."""
        spans, payload = self.work
        if not spans:
            self.work = None
            self._scattered(None)
            return
        page_addr, offset, chunk = spans.pop()
        ssd = self.ssd
        ssd._check_present(self.era)
        self.step = DriveCommand._scatter
        ssd.sim.wait(ssd.port.mem_write(page_addr, chunk, payload[offset : offset + chunk]), self)

    def _scattered(self, _value) -> None:
        ssd = self.ssd
        span = self.sqe.span
        if span is not None:
            span.stamp("ssd_dma", ssd.sim.now)
        ssd.stats.read_ops += 1
        ssd.stats.read_bytes += self.length
        self._done(_SUCCESS)

    # ------------------------------------------- write: DMA in, then media
    def _gather(self) -> None:
        """DMA the next page span from the PRP pages (memory -> device).
        The bytes that land are the submitter's payload, which the SQE
        carries as the authoritative copy."""
        page_addr, _, chunk = self.work.pop()
        ssd = self.ssd
        ssd._check_present(self.era)
        self.step = DriveCommand._gathered_span
        ssd.sim.wait(ssd.port.mem_read(page_addr, chunk), self)

    def _gathered_span(self, _data) -> None:
        if self.work:
            self._gather()
        else:
            self.work = None
            self._gathered(None)

    def _gathered(self, _data) -> None:
        ssd = self.ssd
        sqe = self.sqe
        if sqe.payload is not None:
            ssd._store_blocks(self.slba, sqe.num_blocks, sqe.payload)
        self.step = DriveCommand._written
        ssd.flash.write(self.length, self)

    def _written(self, _value) -> None:
        ssd = self.ssd
        span = self.sqe.span
        if span is not None:
            span.stamp("ssd_dma", ssd.sim.now)
        ssd.stats.write_ops += 1
        ssd.stats.write_bytes += self.length
        self._done(_SUCCESS)

    # ------------------------------------------------------------ complete
    def _complete(self, status: int, result: int) -> None:
        """DMA the CQE into the completion ring, then make it host-visible."""
        ssd = self.ssd
        qp = self.qp
        self.tr = tr = qp.translation
        self.work = alloc_cqe(self.sqe.cid, status, qp.sq.head, self.qid, result)
        if status != _SUCCESS:
            ssd.stats.errors += 1
        target = qp.cq.slot_addr(qp.cq.tail)
        if tr is not None:
            target = tr.tag(target)
        self.step = DriveCommand._posted
        ssd.sim.wait(ssd.port.mem_write(target, CQE_BYTES, None), self)

    def _posted(self, _value) -> None:
        ssd = self.ssd
        cq = self.qp.cq
        cq.post_slot(self.work)
        self.work = None
        if cq.irq_vector is not None:
            tr = self.tr
            if tr is not None:
                cq.note_cqe(ssd.sim, tr.fire_irq(cq))
            else:
                cq.note_cqe(ssd.sim, ssd._fire_vector(cq))
