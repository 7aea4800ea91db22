"""NVMe submission/completion queue rings.

A ring is shared state living in some memory (host DRAM or BMS-Engine
chip memory); the producer and consumer ends both hold a reference,
exactly as real queues are shared memory.  All *transfers* of entries
(fetching an SQE, posting a CQE) are charged through the PCIe fabric by
the callers; the ring object only manages indices, wrap-around, and the
completion phase bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from typing import TYPE_CHECKING

from ..sim import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..host.memory import HostMemory
from .command import CQE, SQE, retire_sqe
from .spec import CQE_BYTES, SQE_BYTES

__all__ = ["SubmissionQueue", "CompletionQueue", "QueuePair", "CQECoalescer"]


class SubmissionQueue:
    """A submission ring: producer advances tail, consumer advances head."""

    def __init__(self, memory: "HostMemory", base: int, depth: int, sqid: int, cqid: int = 0):
        if depth < 2:
            raise SimulationError("SQ depth must be >= 2")
        self.memory = memory
        self.base = base
        self.depth = depth
        self.sqid = sqid
        self.cqid = cqid
        self.tail = 0
        self.head = 0
        #: the world's CheckContext (ring checker); None = dormant, zero-cost
        self.checks = memory.sim.checker("ring")
        # shadow-doorbell state (NVMe shadow doorbell convention): the
        # producer publishes the tail here instead of an MMIO write, and
        # only rings when the consumer armed the wakeup after idling
        self.shadow_mode = False
        self.shadow_tail = 0
        self.db_armed = True
        # producers blocked on a full ring (FIFO; woken on head advance)
        self._space_waiters: list = []
        self._space_name = f"sq{sqid}.space"
        # SQEs stranded in the ring by timed-out commands (slot index ->
        # entry).  The producer records them via note_leaked; they are
        # retired when their slot is overwritten (push) or proven dead at
        # re-attach/teardown (reclaim_dead_slots).
        self._leaked: dict[int, SQE] = {}
        self.leak_reclaims = 0
        #: optional callback fired with the count of reclaimed SQEs
        self.on_reclaim: Optional[Callable[[int], None]] = None

    def slot_addr(self, index: int) -> int:
        return self.base + (index % self.depth) * SQE_BYTES

    @property
    def is_full(self) -> bool:
        return (self.tail + 1) % self.depth == self.head % self.depth

    @property
    def is_empty(self) -> bool:
        return self.tail == self.head

    def outstanding(self) -> int:
        return (self.tail - self.head) % self.depth

    # producer side ---------------------------------------------------------
    def push(self, sqe: SQE) -> int:
        """Write an entry at the tail; returns the slot address."""
        if self.checks is not None:
            self.checks.on_sq_push(self, span=sqe.span)
        depth = self.depth
        tail = self.tail
        if (tail + 1) % depth == self.head % depth:
            raise SimulationError(f"SQ{self.sqid} full")
        slot = tail % depth
        stale = self._leaked.pop(slot, None)
        if stale is not None:
            # overwriting the slot proves nothing can fetch the stale
            # entry anymore (a consumer may still be executing it)
            retire_sqe(stale)
            self.leak_reclaims += 1
            if self.on_reclaim is not None:
                self.on_reclaim(1)
        addr = self.base + slot * SQE_BYTES
        self.memory.store_obj(addr, sqe)
        self.tail = (tail + 1) % depth
        return addr

    def wait_space(self, sim):
        """An event triggered the next time the consumer frees a slot.

        The producer's slot accounting can run ahead of the ring: a
        timed-out command releases its queue slot while its stale SQE
        still occupies the ring until the consumer fetches it (the
        passthrough path during a drive outage is the extreme case —
        nothing fetches at all until the drive is re-seated).  A real
        driver blocks the request when the ring is full; this is that
        block.
        """
        ev = sim.pooled_event(name=self._space_name)
        self._space_waiters.append(ev)
        return ev

    def note_leaked(self, slot: int, sqe: SQE) -> None:
        """Producer: record a timed-out command's SQE stranded at ``slot``.

        The entry cannot be freed yet — the consumer may still fetch the
        stale slot (e.g. a doorbell replay after hot-plug) — but it is
        tracked so the pool recovers it at the next safe point.
        """
        self._leaked[slot % self.depth] = sqe

    def reclaim_dead_slots(self) -> int:
        """Free leaked SQEs whose slots are outside the live window.

        Called at queue teardown or re-attach, *before* any doorbell
        kick: slots in ``[head, tail)`` may still be fetched by the
        consumer and must keep their entries; every other leaked slot
        was consumed before the queue went away and is provably dead.
        Returns the number of entries reclaimed.
        """
        if not self._leaked:
            return 0
        depth = self.depth
        head = self.head % depth
        live = (self.tail - self.head) % depth
        freed = 0
        for slot in sorted(self._leaked):
            if (slot - head) % depth < live:
                continue
            retire_sqe(self._leaked.pop(slot))
            freed += 1
        if freed:
            self.leak_reclaims += freed
            if self.on_reclaim is not None:
                self.on_reclaim(freed)
        return freed

    # consumer side ---------------------------------------------------------
    def consume_addr(self) -> int:
        """Address of the entry at head; advances head."""
        if self.checks is not None:
            self.checks.on_sq_consume(self)
        head = self.head
        if self.tail == head:
            raise SimulationError(f"SQ{self.sqid} empty")
        addr = self.base + (head % self.depth) * SQE_BYTES
        self.head = (head + 1) % self.depth
        if self._space_waiters:
            waiters, self._space_waiters = self._space_waiters, []
            for ev in waiters:
                ev.succeed()
        return addr

    # shadow doorbell --------------------------------------------------------
    def publish_tail(self) -> bool:
        """Producer: record the tail in the shadow slot; True when the
        consumer is armed and an MMIO wakeup is owed (this disarms it,
        so exactly one producer pays the doorbell per idle period)."""
        self.shadow_tail = self.tail
        if self.db_armed:
            self.db_armed = False
            return True
        return False

    def rearm_doorbell(self) -> bool:
        """Consumer, after draining: arm the MMIO wakeup.  Returns True
        when entries raced in since the last emptiness check — the
        consumer must drain again instead of going idle (this closes
        the classic shadow-doorbell lost-wakeup window)."""
        self.db_armed = True
        if not self.is_empty:
            self.db_armed = False
            return True
        return False


class CompletionQueue:
    """A completion ring with NVMe phase-bit semantics."""

    def __init__(self, memory: "HostMemory", base: int, depth: int, cqid: int):
        if depth < 2:
            raise SimulationError("CQ depth must be >= 2")
        self.memory = memory
        self.base = base
        self.depth = depth
        self.cqid = cqid
        self.tail = 0  # device writes here
        self.head = 0  # host consumes here
        self._device_phase = 1
        self._host_phase = 1
        self.irq_vector: Optional[int] = None
        #: the world's CheckContext (ring checker); None = dormant, zero-cost
        self.checks = memory.sim.checker("ring")
        # interrupt-coalescing configuration (NVMe Set Features style):
        # written by the driver at queue setup, consulted by the device
        self.coalesce_threshold = 1
        self.coalesce_timeout_ns = 0
        self._coalescer: Optional["CQECoalescer"] = None

    def slot_addr(self, index: int) -> int:
        return self.base + (index % self.depth) * CQE_BYTES

    @property
    def is_full(self) -> bool:
        """Device view: one more post would overwrite an unconsumed slot."""
        return (self.tail + 1) % self.depth == self.head % self.depth

    # device side -------------------------------------------------------------
    def post_slot(self, cqe: CQE) -> int:
        """Stamp phase, place at tail; returns the slot address to DMA to.

        Raises on a full ring, mirroring the SQ guard: overwriting an
        unconsumed slot would silently lose a completion the host never
        saw (real controllers must respect the CQ head doorbell).
        """
        if self.checks is not None:
            self.checks.on_cq_post(self, cqe)
        depth = self.depth
        tail = self.tail
        if (tail + 1) % depth == self.head % depth:
            raise SimulationError(
                f"CQ{self.cqid} full: completion would overwrite an "
                f"unconsumed entry (depth {self.depth})"
            )
        cqe.phase = self._device_phase
        addr = self.base + (tail % depth) * CQE_BYTES
        self.memory.store_obj(addr, cqe)
        self.tail = tail = (tail + 1) % depth
        if tail == 0:
            self._device_phase ^= 1
        return addr

    # host side ----------------------------------------------------------------
    def poll(self) -> Optional[CQE]:
        """Return the next completion if its phase bit matches, else None."""
        head = self.head
        addr = self.base + (head % self.depth) * CQE_BYTES
        entry = self.memory.load_obj(addr)
        if not isinstance(entry, CQE) or entry.phase != self._host_phase:
            return None
        if self.checks is not None:
            self.checks.on_cq_poll(self, entry)
        # clear the consumed slot: once the host owns the entry the ring
        # must not alias it, or recycling the CQE would plant a stale
        # object a later wrap could mistake for a fresh completion
        self.memory.pop_obj(addr)
        self.head = (head + 1) % self.depth
        if self.head == 0:
            self._host_phase ^= 1
        return entry

    # device-side interrupt moderation ---------------------------------------
    @property
    def coalescing(self) -> bool:
        return self.coalesce_threshold > 1 or self.coalesce_timeout_ns > 0

    def note_cqe(self, sim, fire: Callable[[], None]) -> None:
        """Device-side IRQ decision point, called right after
        :meth:`post_slot`.  Without coalescing configured this calls
        ``fire`` synchronously — identical to the classic path —
        otherwise the MSI-X is moderated by threshold + timer."""
        if self.irq_vector is None:
            return
        if not self.coalescing:
            fire()
            return
        if self._coalescer is None:
            self._coalescer = CQECoalescer(sim, self, fire)
        self._coalescer.on_cqe()


class CQECoalescer:
    """NVMe interrupt coalescing: MSI-X per N CQEs or per timer tick.

    Lives on the device side of a :class:`CompletionQueue`; created
    lazily on the first coalesced completion so unconfigured queues add
    no simulation state at all.
    """

    def __init__(self, sim, cq: CompletionQueue, fire: Callable[[], None]):
        self.sim = sim
        self.cq = cq
        self.fire = fire
        self.pending = 0
        self.fired = 0
        self.timer_fires = 0
        self._timer_live = False

    def on_cqe(self) -> None:
        self.pending += 1
        if self.cq.checks is not None:
            self.cq.checks.on_cq_coalesce(self.cq, self.pending)
        if self.pending >= self.cq.coalesce_threshold:
            self.pending = 0
            self.fired += 1
            self.fire()
            return
        if self.cq.coalesce_timeout_ns > 0 and not self._timer_live:
            self._timer_live = True
            self.sim.timeout(self.cq.coalesce_timeout_ns).callbacks.append(self._timer)

    def _timer(self, _ev) -> None:
        self._timer_live = False
        if self.pending:
            self.pending = 0
            self.fired += 1
            self.timer_fires += 1
            self.fire()


@dataclass
class QueuePair:
    """An SQ/CQ pair plus the doorbell addresses the producer rings."""

    sq: SubmissionQueue
    cq: CompletionQueue
    sq_doorbell: int
    cq_doorbell: int
    #: device-side address/LBA translation for passthrough queues (a
    #: :class:`repro.core.dma_routing.DMATranslation`, duck-typed here
    #: so the NVMe layer stays independent of the engine); None for
    #: every normally attached queue
    translation: Optional[object] = field(default=None, compare=False)
