"""DMA request routing for zero-copy — paper Fig. 4(b).

The BMS-Engine bridges two separate PCIe domains (host-side and
SSD-side) without buffering data.  It rewrites every host PRP entry
into a *global PRP* before handing commands to the back-end SSDs:

* bits [63:57] — PCIe PF/VF function id (7 bits)
* bit  [56]    — PRP-list flag (1 bit)
* bits [47:0]  — the original host physical address

When a back-end SSD later issues a DMA TLP at a global address, the
engine recovers the function id from the address, strips the tag, and
forwards the request out of the matching front-end PF/VF into host
memory — merging the two domains into one and letting the SSD move
data directly to/from the host.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from ..host.policy import DMA_MODELS
from ..sim import SimulationError

__all__ = [
    "FUNCTION_ID_BITS",
    "FUNCTION_ID_SHIFT",
    "LIST_FLAG_SHIFT",
    "ADDRESS_MASK",
    "DMA_MODELS",
    "RouteStats",
    "DMATranslation",
    "DescriptorRingDMA",
    "encode_global_prp",
    "encode_global_prps",
    "decode_global_prp",
    "is_global_prp",
]


class RouteStats:
    """Counts of DMA requests the engine routed between the domains.

    Fed by the engine's step-⑤ router; ``writes``/``reads`` are from
    the SSD's point of view (a host *read* command makes the SSD issue
    DMA *writes* into host memory).
    """

    __slots__ = ("writes", "write_bytes", "reads", "read_bytes")

    def __init__(self) -> None:
        self.writes = 0
        self.write_bytes = 0
        self.reads = 0
        self.read_bytes = 0

    def note_write(self, nbytes: int) -> None:
        self.writes += 1
        self.write_bytes += nbytes

    def note_read(self, nbytes: int) -> None:
        self.reads += 1
        self.read_bytes += nbytes

FUNCTION_ID_BITS = 7
FUNCTION_ID_SHIFT = 57
LIST_FLAG_SHIFT = 56
ADDRESS_MASK = (1 << 48) - 1
_FN_MASK = (1 << FUNCTION_ID_BITS) - 1


def encode_global_prp(function_id: int, host_addr: int, is_list: bool = False) -> int:
    """Insert the function id + list flag into a host PRP entry.

    ``function_id`` 0 is reserved so that untagged (engine-local)
    addresses are distinguishable — the engine assigns front-end
    functions ids 1..127.
    """
    if not 0 < function_id <= _FN_MASK:
        raise SimulationError(
            f"function id {function_id} outside 1..{_FN_MASK} (0 is reserved)"
        )
    if host_addr & ~ADDRESS_MASK:
        raise SimulationError(f"host address {host_addr:#x} exceeds 48 bits")
    return (
        (function_id << FUNCTION_ID_SHIFT)
        | ((1 if is_list else 0) << LIST_FLAG_SHIFT)
        | host_addr
    )


def encode_global_prps(function_id: int, pages: Sequence[int]) -> Sequence[int]:
    """:func:`encode_global_prp` over a PRP chain (see
    :mod:`repro.nvme.prp`): a run maps to a run, a list to a list.

    A run is monotone, so its first and last pages bound every other
    against the 48-bit limit; the tag sits above bit 48, so tagging
    shifts the whole run by one constant.
    """
    if isinstance(pages, range):
        first = encode_global_prp(function_id, pages[0])
        encode_global_prp(function_id, pages[-1])
        return range(first, first + len(pages) * pages.step, pages.step)
    return [encode_global_prp(function_id, addr) for addr in pages]


def decode_global_prp(global_prp: int) -> tuple[int, int, bool]:
    """Split a global PRP into (function_id, host_addr, is_list)."""
    function_id = (global_prp >> FUNCTION_ID_SHIFT) & _FN_MASK
    is_list = bool((global_prp >> LIST_FLAG_SHIFT) & 1)
    host_addr = global_prp & ADDRESS_MASK
    return function_id, host_addr, is_list


def is_global_prp(addr: int) -> bool:
    """True when the address carries a non-zero function-id tag."""
    return ((addr >> FUNCTION_ID_SHIFT) & _FN_MASK) != 0


@dataclass
class DMATranslation:
    """Per-queue address/LBA translation for passthrough queues.

    When a guest SQ/CQ pair is mapped straight onto a back-end SSD
    (the I/O-queue passthrough scheme), the drive fetches guest SQEs
    and DMAs guest pages directly.  Every address the drive touches is
    a *guest* host address, so the engine hands the device-side queue
    pair one of these: :meth:`tag` stamps the owning function id into
    each address (turning it into a global PRP the engine's root space
    routes out the front; :meth:`tag_pages` a whole chain), and
    ``lba_offset``/``num_blocks`` shift and bound guest LBAs into the
    drive's physical window.
    """

    fn_id: int
    lba_offset: int
    num_blocks: int
    #: host-side MSI-X raiser, ``raise_vector(vector)``
    raise_vector: object = field(compare=False, default=None)
    #: cleared on surprise hot-remove: a dead drive's TLPs route nowhere
    live: bool = True

    def tag(self, addr: int) -> int:
        return encode_global_prp(self.fn_id, addr)

    def tag_pages(self, pages: Sequence[int]) -> Sequence[int]:
        return encode_global_prps(self.fn_id, pages)

    def fire_irq(self, cq):
        """An MSI-X thunk for ``CompletionQueue.note_cqe``: raises the
        host-side vector through the engine front port, suppressed once
        the translation dies (a yanked drive cannot interrupt)."""

        def fire() -> None:
            if self.live and cq.irq_vector is not None:
                self.raise_vector(cq.irq_vector)

        return fire


class DescriptorRingDMA:
    """Descriptor-ring streaming DMA: the step-⑤ alternative model.

    The default ``register`` model is a cut-through trigger FSM paying
    ``cut_through_ns`` of routing latency on every TLP, all requests in
    parallel.  This model instead streams requests through a LitePCIe-
    style descriptor ring: a single worker pops one descriptor per
    ``per_desc_ns`` and *launches* the fabric transfer without waiting
    for the data (the fabric's bandwidth links pace the bytes).  Issue
    is serialized but much cheaper per descriptor, which is the classic
    throughput-over-latency trade at high queue depth.

    The worker process is started lazily on the first descriptor and
    exits when the ring drains, so an unused engine adds no events.
    """

    def __init__(self, sim, port, per_desc_ns: int = 40, name: str = "descdma"):
        self.sim = sim
        self.port = port
        self.per_desc_ns = per_desc_ns
        self.name = name
        self._fifo: deque[tuple] = deque()
        self._worker_live = False
        self.descriptors = 0
        self.peak_depth = 0

    def submit_write(self, host_addr: int, length: int, data) -> None:
        """Queue a device->host transfer (fire-and-forget)."""
        self._push(("w", host_addr, length, data, None))

    def submit_read(self, host_addr: int, length: int):
        """Queue a host->device transfer; returns the data event."""
        done = self.sim.event(name=f"{self.name}.rd")
        self._push(("r", host_addr, length, None, done))
        return done

    def _push(self, desc: tuple) -> None:
        self._fifo.append(desc)
        if len(self._fifo) > self.peak_depth:
            self.peak_depth = len(self._fifo)
        if not self._worker_live:
            self._worker_live = True
            self.sim.start(self._worker(), name=f"{self.name}.worker")

    def _worker(self):
        while self._fifo:
            kind, host_addr, length, data, done = self._fifo.popleft()
            self.descriptors += 1
            yield self.sim.timeout(self.per_desc_ns)
            # launch without waiting: the fabric paces the bytes
            if kind == "w":
                self.port.post_write(host_addr, length, data)
            else:
                self.sim.redirect(done, self.port.mem_read(host_addr, length))
        self._worker_live = False
