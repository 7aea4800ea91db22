"""Host Adaptor: the BMS-Engine's back-end NVMe initiator.

For each attached SSD the adaptor keeps an SQ/CQ pair *in engine chip
memory* (the rings the paper's step ③/⑥ reference), pushes remapped
commands, rings the SSD's doorbell over the back-end PCIe domain, and
hands completions back to the engine when the SSD DMA-writes CQEs into
the adaptor CQ.

It also implements the per-slot pause/drain/resume machinery that
hot-upgrade and hot-plug use: while paused, forwarded commands are held
in a pending buffer (the *I/O context*), and nothing reaches the SSD.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..nvme.command import SQE, free_cqe, free_sqe
from ..nvme.queues import CompletionQueue, SubmissionQueue
from ..nvme.spec import StatusCode
from ..nvme.ssd import NVMeSSD
from ..sim import Event, Resource, SimulationError, Simulator

__all__ = ["BackendSlot", "HostAdaptor"]

BACKEND_QUEUE_DEPTH = 1024
BACKEND_QID = 1


class ForwardRequest:
    """One command forwarded to a back-end slot: buffered while the slot
    is paused, then filed in ``pending`` until its completion."""

    __slots__ = ("sqe", "on_complete")

    def __init__(self, sqe: SQE, on_complete: Callable[[int], None]):
        self.sqe = sqe
        self.on_complete = on_complete  # called with the CQE status


class BackendSlot:
    """One back-end SSD attachment point."""

    def __init__(self, adaptor: "HostAdaptor", index: int, ssd: NVMeSSD):
        self.adaptor = adaptor
        self.index = index
        self.ssd: Optional[NVMeSSD] = ssd
        self.sim = adaptor.sim
        self.paused = False
        self.pause_buffer: list[ForwardRequest] = []
        self.inflight = 0
        self._drain_event: Optional[Event] = None
        self._next_cid = 0
        self.pending: dict[int, ForwardRequest] = {}
        self.slots = Resource(self.sim, BACKEND_QUEUE_DEPTH - 1, name=f"bslot{index}")
        self.forwarded = 0
        self.completed = 0
        mem = adaptor.chip_memory
        self.sq = SubmissionQueue(
            mem, mem.alloc(BACKEND_QUEUE_DEPTH * 64), BACKEND_QUEUE_DEPTH,
            sqid=BACKEND_QID,
        )
        self.cq = CompletionQueue(
            mem, mem.alloc(BACKEND_QUEUE_DEPTH * 16), BACKEND_QUEUE_DEPTH,
            cqid=BACKEND_QID,
        )
        self._cq_range = (self.cq.base, self.cq.base + BACKEND_QUEUE_DEPTH * 16)
        adaptor._register_cq_range(self)
        # admin queue pair toward the drive (firmware, identify, logs)
        self.admin_sq = SubmissionQueue(mem, mem.alloc(32 * 64), 32, sqid=0)
        self.admin_cq = CompletionQueue(mem, mem.alloc(32 * 16), 32, cqid=0)
        self._admin_cq_range = (self.admin_cq.base, self.admin_cq.base + 32 * 16)
        self._admin_pending: dict[int, Callable[[int], None]] = {}
        self._next_admin_cid = 0
        adaptor._register_admin_cq_range(self)
        if adaptor.checks is not None:
            for ring in (self.sq, self.cq, self.admin_sq, self.admin_cq):
                adaptor.checks.bind_ring(ring)
        self._bind_ssd(ssd)

    def _bind_ssd(self, ssd: NVMeSSD) -> None:
        ssd.attach_queue_pair(BACKEND_QID, self.sq, self.cq)
        self.cq.irq_vector = None  # the engine snoops CQ writes instead
        ssd.attach_queue_pair(0, self.admin_sq, self.admin_cq)
        self.admin_cq.irq_vector = None

    # ------------------------------------------------------------- hot swap
    def detach_ssd(self) -> Optional[NVMeSSD]:
        """Hot-plug: unbind the (faulty) drive, keeping the front end."""
        old = self.ssd
        if old is not None:
            old.detach_queue_pair(BACKEND_QID)
            old.detach_queue_pair(0)
        self.ssd = None
        return old

    def surprise_remove(self) -> Optional[NVMeSSD]:
        """Surprise hot-remove: detach without a drain, failing every
        in-flight and pause-buffered command with NAMESPACE_NOT_READY.

        CQEs the removed drive already DMA'd (or late ones from a race)
        become stale: :meth:`_reap` ignores them because their pending
        contexts are gone.  The accounting (inflight, ring slots) is
        settled here so the sim kernel never deadlocks on a drained
        event or a leaked slot.
        """
        removed = self.detach_ssd()
        if removed is not None:
            removed.on_removed()
        failed, self.pending = self.pending, {}
        buffered, self.pause_buffer = self.pause_buffer, []
        for cid in sorted(failed):
            self.inflight -= 1
            self.slots.release()
            failed[cid].on_complete(int(StatusCode.NAMESPACE_NOT_READY))
        for req in buffered:
            req.on_complete(int(StatusCode.NAMESPACE_NOT_READY))
        admin_failed, self._admin_pending = self._admin_pending, {}
        for cid in sorted(admin_failed):
            admin_failed[cid](int(StatusCode.NAMESPACE_NOT_READY))
        if self.inflight == 0 and self._drain_event is not None:
            ev, self._drain_event = self._drain_event, None
            ev.succeed()
        return removed

    # ---------------------------------------------------------- admin path
    def forward_admin(self, sqe: SQE, on_complete: Callable[[int], None]) -> None:
        """Issue an admin command to the drive (BMS-Controller use)."""
        self.sim.timeout(self.adaptor.push_ns).callbacks.append(
            lambda _ev: self._forward_admin(sqe, on_complete))

    def _forward_admin(self, sqe: SQE, on_complete: Callable[[int], None]) -> None:
        """``push_ns`` after :meth:`forward_admin`: into the admin SQ."""
        if self.ssd is None:
            # surprise-removed drive: the admin command fails fast
            on_complete(int(StatusCode.NAMESPACE_NOT_READY))
            return
        self._next_admin_cid = (self._next_admin_cid + 1) % 0xFFFF
        sqe.cid = self._next_admin_cid
        self._admin_pending[sqe.cid] = on_complete
        self.admin_sq.push(sqe)
        self.adaptor.backend_fabric.cpu_write(self.ssd.doorbell_addr(0), 4)

    def on_admin_cq_write(self) -> None:
        self.sim.timeout(self.adaptor.cqe_relay_ns).callbacks.append(self._reap_admin)

    def _reap_admin(self, _ev: Event) -> None:
        while True:
            cqe = self.admin_cq.poll()
            if cqe is None:
                return
            cb = self._admin_pending.pop(cqe.cid, None)
            if cb is not None:
                cb(cqe.status)
            free_cqe(cqe)

    def attach_ssd(self, ssd: NVMeSSD) -> None:
        if self.ssd is not None:
            raise SimulationError(f"slot {self.index} already has an SSD")
        self.ssd = ssd
        self._bind_ssd(ssd)
        if self.adaptor.engine is not None:
            for hook in self.adaptor.engine.hooks.slot_attach:
                hook(self.index, ssd)

    # ------------------------------------------------------ pause machinery
    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False
        buffered, self.pause_buffer = self.pause_buffer, []
        for req in buffered:
            self.sim.start(self._forward_now(req), name="slot.replay")

    def drain(self) -> Event:
        """Event firing when no commands remain at the SSD."""
        ev = self.sim.event(name=f"slot{self.index}.drained")
        if self.inflight == 0:
            ev.succeed()
        else:
            self._drain_event = ev
        return ev

    def io_context(self) -> dict:
        """The I/O context stored before an upgrade (paper §IV-D)."""
        return {
            "sq_head": self.sq.head,
            "sq_tail": self.sq.tail,
            "cq_head": self.cq.head,
            "pending_cids": sorted(self.pending),
            "buffered": len(self.pause_buffer),
        }

    # ------------------------------------------------------------ forwarding
    def forward(self, sqe: SQE, on_complete: Callable[[int], None]) -> None:
        """Queue a remapped command toward this SSD (engine step ③)."""
        req = ForwardRequest(sqe, on_complete)
        if self.paused:
            self.pause_buffer.append(req)
        else:
            self.sim.start(self._forward_now(req), name="slot.fwd")

    def _forward_now(self, req: ForwardRequest):
        if self.paused:
            self.pause_buffer.append(req)
            return
        if not self.slots.try_acquire():
            yield self.slots.acquire()
        yield self.sim.timeout(self.adaptor.push_ns)
        if self.ssd is None:
            # surprise-removed drive: fail fast with a real NVMe status
            # so the host driver's retry/requeue policy can engage
            self.slots.release()
            req.on_complete(int(StatusCode.NAMESPACE_NOT_READY))
            return
        self._next_cid = (self._next_cid + 1) % 0xFFFF
        cid = self._next_cid
        sqe = req.sqe
        sqe.cid = cid
        self.pending[cid] = req
        self.inflight += 1
        self.forwarded += 1
        self.sq.push(sqe)
        # posted: the forwarder is done once the doorbell is on the wire
        self.adaptor.backend_fabric.cpu_write(self.ssd.doorbell_addr(BACKEND_QID), 4)

    # ------------------------------------------------------------ completion
    def on_cq_write(self) -> None:
        """The engine saw a DMA write land in this slot's CQ range."""
        self.sim.timeout(self.adaptor.cqe_relay_ns).callbacks.append(self._reap)

    def _reap(self, _ev: Event) -> None:
        """Step ⑥, ``cqe_relay_ns`` after a CQE landed: hand every
        posted completion back to its forwarder."""
        while True:
            cqe = self.cq.poll()
            if cqe is None:
                return
            ctx = self.pending.pop(cqe.cid, None)
            if ctx is None:
                # stale CQE: the command was already failed by a
                # surprise removal — its slot/inflight accounting is
                # settled, so this completion must not double-release
                continue
            self.inflight -= 1
            self.completed += 1
            self.slots.release()
            if self.inflight == 0 and self._drain_event is not None:
                ev, self._drain_event = self._drain_event, None
                ev.succeed()
            ctx.on_complete(cqe.status)
            # the forwarded command round-tripped: both ring entries are
            # consumed and the device-side coroutine has exited, so the
            # remapped SQE and its CQE can rejoin the free lists
            free_sqe(ctx.sqe)
            free_cqe(cqe)


class HostAdaptor:
    """All back-end slots plus the chip-memory CQ snooping."""

    def __init__(
        self,
        sim: Simulator,
        chip_memory,
        backend_fabric,
        push_ns: int = 100,
        cqe_relay_ns: int = 150,
    ):
        self.sim = sim
        self.chip_memory = chip_memory
        self.backend_fabric = backend_fabric
        self.push_ns = push_ns
        self.cqe_relay_ns = cqe_relay_ns
        self.slots: list = []  # BackendSlot | ExtendedBackendSlot
        self.engine = None  # set by the owning BMSEngine
        self.checks = None  # CheckContext; slots bind their rings when set
        self._cq_ranges: list[tuple[int, int, BackendSlot]] = []
        self._admin_cq_ranges: list[tuple[int, int, BackendSlot]] = []

    def add_ssd(self, ssd: NVMeSSD) -> BackendSlot:
        slot = BackendSlot(self, len(self.slots), ssd)
        self.slots.append(slot)
        return slot

    def _register_cq_range(self, slot: BackendSlot) -> None:
        lo, hi = slot._cq_range
        self._cq_ranges.append((lo, hi, slot))

    def _register_admin_cq_range(self, slot: BackendSlot) -> None:
        lo, hi = slot._admin_cq_range
        self._admin_cq_ranges.append((lo, hi, slot))

    def notice_write(self, addr: int) -> None:
        """Chip-memory write hook: detect CQE landings."""
        for lo, hi, slot in self._cq_ranges:
            if lo <= addr < hi:
                slot.on_cq_write()
                return
        for lo, hi, slot in self._admin_cq_ranges:
            if lo <= addr < hi:
                slot.on_admin_cq_write()
                return

    def slot_for(self, ssd_id: int) -> BackendSlot:
        if not 0 <= ssd_id < len(self.slots):
            raise SimulationError(f"no back-end slot {ssd_id}")
        return self.slots[ssd_id]

    def drive(self, ssd_id: int) -> Optional[NVMeSSD]:
        """The NVMe drive seated in slot ``ssd_id``; None while the slot
        is empty, or for a SATA/remote slot."""
        return self.slot_for(ssd_id).ssd
