"""Host physical memory: the DMA target of everything.

Byte-accurate storage is *optional*: performance runs pass
``data=None`` and only timing is modeled; integrity tests pass real
bytes, which are kept in 4 KiB pages so scattered DMA writes (PRP page
granularity) reassemble correctly on read.

A parallel *object store* holds structured queue entries (SQE/CQE
dataclasses) at their ring addresses — the simulation's stand-in for
serialized structures, charged at their real wire size.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim import SimulationError, Simulator
from ..sim.units import PAGE_SIZE

__all__ = ["HostMemory", "BufferPool", "PAGE_SIZE"]


class BufferPool:
    """Recycling DMA-buffer allocator over a :class:`HostMemory`.

    Buckets freed buffers by page-multiple size class: the backing bump
    allocator never reclaims, so exact-size buckets would fragment long
    mixed-size runs into spurious out-of-memory (a 24-byte PRP list and
    a 56-byte one could never share a buffer).  Rounding both the bucket
    key and the allocation to the next page multiple lets every small
    request recycle the same buffers, bounding ``memory.allocated`` by
    the peak working set instead of the sum of distinct sizes.

    When a :class:`~repro.core.cxl.CXLBufferTier` is attached (``tier``
    non-None), chip-memory exhaustion spills into the tier instead of
    raising, and on-card buffers are always preferred so the hot set
    stays on-card; the dormant path (``tier is None``) is one pointer
    test away from the historical behavior.
    """

    def __init__(self, memory: "HostMemory"):
        self.memory = memory
        self._free: dict[int, list[int]] = {}
        #: spilled (tier-resident) free buckets, only populated when armed
        self._free_tier: dict[int, list[int]] = {}
        #: every address in either set of buckets (the double-free guard)
        self._pooled: set[int] = set()
        #: the world's CheckContext (prp checker); None = dormant, zero-cost
        self.checks = memory.sim.checker("prp")
        #: bound CXLBufferTier (spill/borrow); None = dormant, zero-cost
        self.tier = None

    @staticmethod
    def bucket_size(nbytes: int) -> int:
        """The page-multiple size class a request is served from."""
        return -(-nbytes // PAGE_SIZE) * PAGE_SIZE

    def memory_for(self, addr: int) -> "HostMemory":
        """The memory a pooled address lives in: this pool's own, or
        the tier window/lender slot a spilled buffer was placed in."""
        if self.tier is not None and not self.memory.contains(addr):
            return self.tier.owner_memory(addr)
        return self.memory

    def read_async(self, addr: int, length: int, reply) -> None:
        """A device read of a pooled buffer (a PRP list): on-card memory
        answers at once, a spilled buffer after the tier's link and
        media latency; then ``reply(data)``."""
        if self.tier is not None and self.tier.contains(addr):
            self.tier.window_read(addr, length, reply)
            return
        reply(self.memory.mem_read(addr, length))

    def owner_name(self, addr: int) -> str:
        """Name of the memory ``addr`` lives in (checker bookkeeping
        follows buffers across tiers by this key)."""
        return self.memory_for(addr).name

    def get(self, nbytes: int) -> int:
        size = self.bucket_size(nbytes)
        bucket = self._free.get(size)
        onchip = True
        if bucket:
            addr = bucket.pop()
            self._pooled.discard(addr)
        else:
            try:
                addr = self.memory.alloc(size)
            except SimulationError:
                if self.tier is None:
                    raise
                tbucket = self._free_tier.get(size)
                if tbucket:
                    addr = tbucket.pop()
                    self._pooled.discard(addr)
                else:
                    addr = self.tier.spill(size)
                onchip = False
        if self.tier is not None:
            idle = self._free_tier.get(size)
            if self.tier.note_get(size, onchip, idle_spilled=bool(idle)):
                promoted = idle.pop()
                self._pooled.discard(promoted)
                self.tier.retire(promoted, size)
        if self.checks is not None:
            self.checks.on_buffer_alloc(self, addr, size)
        return addr

    def put(self, addr: int, nbytes: int) -> None:
        size = self.bucket_size(nbytes)
        if self.checks is not None:
            self.checks.on_buffer_free(self, addr, size)
        if self.memory.contains(addr):
            bucket = self._free.setdefault(size, [])
        elif self.tier is not None and self.tier.contains(addr):
            if self.tier.absorb_revoked(addr):
                return  # the lender vanished while this buffer was in flight
            bucket = self._free_tier.setdefault(size, [])
        else:
            # inline guard (independent of any bound checker): a foreign
            # address would be handed to the next get as if it were a
            # valid DMA buffer
            raise SimulationError(
                f"{self.memory.name}: foreign address {addr:#x} "
                "returned to pool"
            )
        if addr in self._pooled:
            # inline guard: same-addr re-free while still pooled would
            # hand one buffer to two owners on the next two gets
            raise SimulationError(
                f"{self.memory.name}: double free of pooled buffer "
                f"{addr:#x} ({size} bytes)"
            )
        self._pooled.add(addr)
        bucket.append(addr)

    def drop_addresses(self, dead: set) -> set:
        """Purge revoked addresses from the free buckets.

        Returns the subset actually found pooled; the rest are in
        flight and get absorbed by ``put`` later.
        """
        purged = self._pooled & dead
        if purged:
            self._pooled -= purged
            for bucket in self._free_tier.values():
                bucket[:] = [a for a in bucket if a not in purged]
        return purged


class HostMemory:
    """DRAM address space with a bump-pointer allocator.

    Implements the fabric :class:`~repro.pcie.fabric.AddressHandler`
    protocol so it can serve as the root window of a PCIe domain.
    """

    def __init__(
        self,
        sim: Simulator,
        size: int,
        access_ns: int = 60,
        base: int = 0,
        name: str = "dram",
    ):
        self.sim = sim
        self.size = size
        self.base = base
        self.name = name
        self._access_ns = access_ns
        self._pages: dict[int, bytearray] = {}
        self._objects: dict[int, Any] = {}
        self._next_free = base
        self.bytes_written = 0
        self.bytes_read = 0

    # -- allocator ---------------------------------------------------------
    def alloc(self, nbytes: int, align: int = PAGE_SIZE) -> int:
        """Allocate a region; returns its base address."""
        if nbytes <= 0:
            raise SimulationError(f"allocation of {nbytes} bytes")
        addr = -(-self._next_free // align) * align  # round up
        if addr + nbytes > self.base + self.size:
            raise SimulationError(
                f"{self.name}: out of memory allocating {nbytes} bytes"
            )
        self._next_free = addr + nbytes
        return addr

    @property
    def allocated(self) -> int:
        return self._next_free - self.base

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    # -- AddressHandler protocol --------------------------------------------
    @property
    def access_ns(self) -> int:
        return self._access_ns

    def mem_write(self, addr: int, length: int, data: Optional[bytes]) -> None:
        self.bytes_written += length
        if data is None:
            return
        if len(data) != length:
            raise SimulationError("data length mismatch on memory write")
        self._scatter(addr, data)

    def mem_read(self, addr: int, length: int) -> Optional[Any]:
        self.bytes_read += length
        if addr in self._objects:
            # structured queue entry / PRP list parked at this address
            return self._objects[addr]
        return self._gather(addr, length)

    # -- byte-accurate backing store ------------------------------------------
    def _scatter(self, addr: int, data: bytes) -> None:
        offset = 0
        while offset < len(data):
            page_idx, page_off = divmod(addr + offset, PAGE_SIZE)
            chunk = min(PAGE_SIZE - page_off, len(data) - offset)
            page = self._pages.get(page_idx)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[page_idx] = page
            page[page_off : page_off + chunk] = data[offset : offset + chunk]
            offset += chunk

    def _gather(self, addr: int, length: int) -> Optional[bytes]:
        if not self._pages:
            # performance runs never scatter bytes: skip assembling a
            # zero-filled buffer that would be discarded anyway
            return None
        out = bytearray()
        offset = 0
        any_backed = False
        while offset < length:
            page_idx, page_off = divmod(addr + offset, PAGE_SIZE)
            chunk = min(PAGE_SIZE - page_off, length - offset)
            page = self._pages.get(page_idx)
            if page is not None:
                any_backed = True
                out += page[page_off : page_off + chunk]
            else:
                out += bytes(chunk)
            offset += chunk
        return bytes(out) if any_backed else None

    # -- object store (structured queue entries) -------------------------------
    def store_obj(self, addr: int, obj: Any) -> None:
        self._objects[addr] = obj

    def load_obj(self, addr: int) -> Any:
        return self._objects.get(addr)

    def pop_obj(self, addr: int) -> Any:
        return self._objects.pop(addr, None)
