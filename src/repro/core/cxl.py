"""CXL-extended buffer tier with XBOF-style inter-SSD sharing.

The engine ships with a fixed on-card DRAM budget (``chip_memory_bytes``),
so burst-heavy tenants either stall on ``HostMemory: out of memory`` or
force over-provisioning on every card in the rack.  This module models
two escape hatches the fixed-card design leaves on the table:

* :class:`CXLBufferTier` — a second, slower ``HostMemory`` window behind
  a CXL.mem link (distinct ``access_ns``, bandwidth-modeled via
  :class:`~repro.sim.resources.BandwidthLink`).  The engine's
  :class:`~repro.host.memory.BufferPool` spills overflow allocations
  into the window instead of raising out-of-memory; hot buffers stay
  on-card because the pool always serves on-card buckets first, and
  spilled capacity is handed back (promoted) once the working set fits
  on-card again.
* :class:`SharePool` — XBOF-style borrowing of idle per-SSD buffer DRAM
  across the JBOF: when the CXL window itself overflows, the tier
  borrows bounded slices from attached back-end slots.  Grants are
  revocable — returned voluntarily as pressure subsides, and revoked
  forcibly when the lending slot is surprise hot-removed.

Armed by :meth:`BMSEngine.cxl_tier` (or NVMe-MI ``CXL_ENABLE``), the
tier attaches through the engine hooks listed in ``core/hooks.py`` and
as the ``tier`` of the engine's PRP buffer pool, which serves spills
and window reads through it.

Spill/promote policy (deterministic by construction):

1. ``BufferPool.get`` serves the on-card free bucket, then a fresh
   on-card allocation.  Only when the chip allocator raises OOM does the
   request fall through to the tier: first recycled spilled buffers,
   then a fresh window allocation, then a borrowed slice — each step
   counted (``cxl_spills``) and visible in NVMe-MI / obs.
2. While spilled buffers of a size sit idle, every on-card ``get`` of
   that size increments a consecutive-hit counter; after
   ``promote_after`` consecutive on-card serves one idle spilled buffer
   is retired back to the window free list (or its borrow grant is
   returned to the lender) and counted as a promote.  The hysteresis
   keeps a brief lull inside a burst from thrashing capacity back and
   forth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..host.memory import HostMemory
from ..mgmt.nvme_mi import MIOpcode, MIStatus
from ..sim import Event, SimulationError, Simulator
from ..sim.resources import BandwidthLink
from ..sim.units import MIB

__all__ = ["CXLTimings", "CXLBufferTier", "SharePool", "CXL_WINDOW_BASE"]

#: base of the CXL-attached window in the back-end address space; far
#: above chip memory (0x1000_0000) and far below the function-id tag
#: bits (bit 57+), so ``is_global_prp`` never claims a window address
CXL_WINDOW_BASE = 0x40_0000_0000
#: each lender slot's buffer window: one disjoint 16 GiB slab per slot
SLOT_BUFFER_BASE = 0x50_0000_0000
SLOT_BUFFER_STRIDE = 0x4_0000_0000


@dataclass(frozen=True)
class CXLTimings:
    """Knobs of the CXL buffer tier (all deterministic constants)."""

    #: CXL.mem load latency — ~6x the on-card DRAM's 25 ns
    access_ns: int = 150
    #: x8 CXL 2.0 link payload bandwidth
    bytes_per_sec: float = 28.0e9
    #: capacity of the engine-private CXL window
    window_bytes: int = 256 * MIB
    #: consecutive on-card serves of a size before one idle spilled
    #: buffer of that size is handed back (promote hysteresis)
    promote_after: int = 4
    #: idle buffer DRAM each back-end slot exposes to the share pool
    slot_buffer_bytes: int = 64 * MIB
    #: fraction of a slot's buffer one engine may borrow (the bound)
    max_lend_fraction: float = 0.5


@dataclass
class _Grant:
    """One outstanding borrow from a lender slot."""

    ssd_id: int
    addr: int
    nbytes: int


class SharePool:
    """Idle per-SSD buffer DRAM, lendable across the JBOF (XBOF-style).

    Lender windows are carved lazily per slot index; grants are bounded
    by ``max_lend_fraction`` of the slot's buffer and revoked when the
    owner demands them back (``reclaim``) or vanishes (surprise
    hot-removal).  A revoked grant's bytes are simply lost to the
    borrower — the conservative model of DRAM that left with the drive;
    the slot's bump pointer is *not* rewound, so a revoked address can
    never be re-granted and alias a stale in-flight buffer.
    """

    def __init__(self, engine, timings: CXLTimings):
        self.engine = engine
        self.sim: Simulator = engine.sim
        self.timings = timings
        self._slot_mem: dict[int, HostMemory] = {}
        self._slot_free: dict[int, dict[int, list[int]]] = {}
        self._lent: dict[int, int] = {}
        #: addr -> grant, for every outstanding borrow
        self.grants: dict[int, _Grant] = {}
        self.lends = 0
        self.reclaims = 0
        self.revocations = 0

    # ----------------------------------------------------------- lender side
    def _slot_memory(self, ssd_id: int) -> HostMemory:
        mem = self._slot_mem.get(ssd_id)
        if mem is None:
            mem = HostMemory(
                self.sim, self.timings.slot_buffer_bytes,
                access_ns=self.timings.access_ns,
                base=SLOT_BUFFER_BASE + ssd_id * SLOT_BUFFER_STRIDE,
                name=f"{self.engine.name}.slot{ssd_id}.buf",
            )
            self._slot_mem[ssd_id] = mem
            self._slot_free[ssd_id] = {}
            self._lent[ssd_id] = 0
        return mem

    @property
    def lent_bytes(self) -> int:
        return sum(g.nbytes for g in self.grants.values())

    def borrow(self, nbytes: int) -> Optional[int]:
        """Borrow ``nbytes`` from the first slot with idle capacity.

        Slots are scanned in index order so the choice is deterministic;
        returns the granted address, or None when every slot is either
        detached or at its lending bound.
        """
        bound = int(self.timings.slot_buffer_bytes
                    * self.timings.max_lend_fraction)
        for ssd_id in range(len(self.engine.adaptor.slots)):
            if self.engine.adaptor.drive(ssd_id) is None:
                continue
            mem = self._slot_memory(ssd_id)
            if self._lent[ssd_id] + nbytes > bound:
                continue
            bucket = self._slot_free[ssd_id].get(nbytes)
            if bucket:
                addr = bucket.pop()
            else:
                try:
                    addr = mem.alloc(nbytes)
                except SimulationError:
                    continue
            self._lent[ssd_id] += nbytes
            self.grants[addr] = _Grant(ssd_id, addr, nbytes)
            self.lends += 1
            return addr
        return None

    def give_back(self, addr: int) -> None:
        """Voluntary return of a grant (borrower's pressure subsided)."""
        grant = self.grants.pop(addr, None)
        if grant is None:
            return
        self._lent[grant.ssd_id] -= grant.nbytes
        self._slot_free[grant.ssd_id].setdefault(
            grant.nbytes, []).append(grant.addr)

    def reclaim(self, ssd_id: int) -> list[_Grant]:
        """The owner demands its buffer back: revoke the slot's grants."""
        taken = [g for g in self.grants.values() if g.ssd_id == ssd_id]
        for grant in taken:
            del self.grants[grant.addr]
            self._lent[ssd_id] -= grant.nbytes
        self.reclaims += 1
        self.revocations += len(taken)
        return taken

    def memory_of(self, addr: int) -> Optional[HostMemory]:
        for mem in self._slot_mem.values():
            if mem.contains(addr):
                return mem
        return None

    def contains(self, addr: int) -> bool:
        return any(mem.contains(addr) for mem in self._slot_mem.values())


class CXLBufferTier:
    """Slower second buffer tier behind the engine's chip memory.

    Armed via ``engine.cxl_tier()``; the engine's ``BufferPool`` then
    spills overflow allocations here instead of raising out-of-memory.
    """

    def __init__(self, engine, timings: Optional[CXLTimings] = None):
        self.engine = engine
        self.sim: Simulator = engine.sim
        self.timings = timings or CXLTimings()
        self.window = HostMemory(
            self.sim, self.timings.window_bytes,
            access_ns=self.timings.access_ns,
            base=CXL_WINDOW_BASE, name=f"{engine.name}.cxlmem",
        )
        self.link = BandwidthLink(
            self.sim, self.timings.bytes_per_sec, name=f"{engine.name}.cxl"
        )
        self.share = SharePool(engine, self.timings)
        #: retired spilled buffers, recyclable before growing the window
        self._window_free: dict[int, list[int]] = {}
        #: revoked borrowed addresses still held by in-flight commands
        self._revoked: set[int] = set()
        #: per-size run of consecutive on-card serves (promote hysteresis)
        self._onchip_runs: dict[int, int] = {}
        # stats — surfaced through NVMe-MI CXL_STAT and obs counters
        self.spills = 0
        self.spilled_bytes = 0
        self.promotes = 0
        self.hits_onchip = 0
        self.hits_cxl = 0
        self.revoked_inflight = 0
        obs = engine.obs
        self._c_spills = obs.counter("cxl_spills", engine=engine.name)
        self._g_hit = obs.gauge("cxl_hit_ratio", engine=engine.name)
        self._g_borrowed = obs.gauge("borrowed_bytes", engine=engine.name)
        engine._prp_pool.tier = self
        # the drive's DRAM leaves with it: its borrow grants die once
        # the slot has failed its commands
        engine.hooks.slot_removal.append((None, self.on_slot_removed))
        engine.hooks.opcodes["mi"].update(
            {MIOpcode.CXL_ENABLE: self._mi_stat, MIOpcode.CXL_STAT: self._mi_stat})

    # ------------------------------------------------------------ geometry
    def contains(self, addr: int) -> bool:
        return self.window.contains(addr) or self.share.contains(addr)

    def owner_memory(self, addr: int) -> HostMemory:
        """The memory a tier-resident address lives in (chip otherwise)."""
        if self.window.contains(addr):
            return self.window
        mem = self.share.memory_of(addr)
        if mem is not None:
            return mem
        return self.engine.chip_memory

    @property
    def borrowed_bytes(self) -> int:
        return self.share.lent_bytes

    # -------------------------------------------------------- spill/promote
    def spill(self, nbytes: int) -> int:
        """Place one overflow allocation: window, then a borrowed slice.

        Raises the chip allocator's out-of-memory error only when the
        window is exhausted *and* no slot will lend.
        """
        bucket = self._window_free.get(nbytes)
        if bucket:
            addr = bucket.pop()
        else:
            try:
                addr = self.window.alloc(nbytes)
            except SimulationError:
                addr = self.share.borrow(nbytes)
                if addr is None:
                    raise SimulationError(
                        f"{self.engine.name}: chip memory, CXL window and "
                        f"share pool all exhausted allocating {nbytes} bytes"
                    )
        self.spills += 1
        self.spilled_bytes += nbytes
        self._c_spills.inc()
        self._publish()
        return addr

    def note_get(self, nbytes: int, onchip: bool,
                 idle_spilled: bool = False) -> bool:
        """Account one pool serve; drive the promote hysteresis.

        ``idle_spilled`` says the pool holds an idle spilled buffer of
        this size.  Returns True after ``promote_after`` consecutive
        on-card serves: the pool then takes one such buffer out of its
        bucket and hands it to :meth:`retire`.
        """
        promote = False
        if onchip:
            self.hits_onchip += 1
            if idle_spilled:
                run = self._onchip_runs.get(nbytes, 0) + 1
                if run >= self.timings.promote_after:
                    self.promotes += 1
                    promote = True
                    run = 0
                self._onchip_runs[nbytes] = run
        else:
            self.hits_cxl += 1
            self._onchip_runs[nbytes] = 0
        self._publish()
        return promote

    def retire(self, addr: int, nbytes: int) -> None:
        """Hand spilled capacity back: window free list or the lender."""
        if self.window.contains(addr):
            self._window_free.setdefault(nbytes, []).append(addr)
        else:
            self.share.give_back(addr)
        self._publish()

    def absorb_revoked(self, addr: int) -> bool:
        """True when ``addr`` was revoked while in flight: drop, don't pool."""
        if addr in self._revoked:
            self._revoked.discard(addr)
            self.revoked_inflight += 1
            return True
        return False

    @property
    def hit_ratio(self) -> float:
        total = self.hits_onchip + self.hits_cxl
        return self.hits_onchip / total if total else 1.0

    def _publish(self) -> None:
        self._g_hit.set(round(self.hit_ratio, 6))
        self._g_borrowed.set(self.borrowed_bytes)

    # ----------------------------------------------------------- revocation
    def on_slot_removed(self, ssd_id: int, removed=None) -> None:
        """Surprise hot-removal of a lender: its grants die immediately.

        Granted addresses still sitting in the pool's free buckets are
        purged; addresses held by in-flight commands are absorbed when
        they come back through ``put`` (counted ``revoked_inflight``).
        """
        taken = self.share.reclaim(ssd_id)
        if not taken:
            return
        dead = {g.addr for g in taken}
        pool = self.engine._prp_pool
        purged = pool.drop_addresses(dead)
        self._revoked.update(dead - purged)
        self._publish()

    # ------------------------------------------------------------- datapath
    def window_read(self, addr: int, length: int, reply) -> None:
        """A backend read of a tier-resident address: link + media time,
        then ``reply(data)``."""
        mem = self.owner_memory(addr)

        def land(_ev: Event) -> None:
            reply(mem.mem_read(addr, length))

        self.link.transfer(length, extra_ns=mem.access_ns).callbacks.append(land)

    # ------------------------------------------------------------------ stats
    def _mi_stat(self, _params: dict):
        return MIStatus.SUCCESS, self.stat()

    def stat(self) -> dict:
        """JSON-able tier statistics (NVMe-MI ``CXL_STAT`` body)."""
        return {
            "window_bytes": self.window.size,
            "window_allocated": self.window.allocated,
            "access_ns": self.timings.access_ns,
            "spills": self.spills,
            "spilled_bytes": self.spilled_bytes,
            "promotes": self.promotes,
            "hits_onchip": self.hits_onchip,
            "hits_cxl": self.hits_cxl,
            "hit_ratio": round(self.hit_ratio, 6),
            "borrowed_bytes": self.borrowed_bytes,
            "lends": self.share.lends,
            "reclaims": self.share.reclaims,
            "revocations": self.share.revocations,
            "revoked_inflight": self.revoked_inflight,
        }
