"""MDev-NVMe baseline: mediated pass-through with active polling.

The Table I row the paper cites ([32], USENIX ATC'18): a host kernel
module mediates a physical NVMe controller into per-VM virtual
controllers.  The *fast path* is near-passthrough — guest queues map
onto shadow queues on the physical drive, with host LBA translation per
command — but a dedicated host polling core drives submission/completion
mediation, and a host kernel module must be installed (no transparency,
no bare-metal deployability).

Model: one polling core mediates all guest queues; per-command
mediation costs are far smaller than vhost's data handling (no virtio
descriptor layer, no segment processing) so performance stays close to
native, which is exactly MDev-NVMe's published result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..host.block import CompletionInfo
from ..host.environment import Host
from ..host.memory import BufferPool
from ..nvme.command import SQE
from ..nvme.prp import build_prps
from ..nvme.queues import CompletionQueue, SubmissionQueue
from ..nvme.spec import IOOpcode, LBA_BYTES, StatusCode
from ..nvme.ssd import NVMeSSD
from ..sim import Event, SimulationError, Simulator

__all__ = ["MDevConfig", "MDevNVMeTarget", "MDevVirtualDisk"]

MDEV_QID = 9


@dataclass(frozen=True)
class MDevConfig:
    """Per-command mediation costs on the polling core."""

    submit_ns: int = 900  # shadow-queue copy + LBA translation
    completion_ns: int = 500
    poll_interval_ns: int = 500
    guest_submit_ns: int = 700
    guest_irq_ns: int = 2500


@dataclass
class _MDevRequest:
    opcode: int
    lba: int
    nblocks: int
    payload: Optional[bytes]
    want_data: bool
    done: Event
    start_ns: int
    vdisk: "MDevVirtualDisk"


class MDevVirtualDisk:
    """The mediated NVMe device one VM sees (an LBA-translated slice)."""

    def __init__(self, target: "MDevNVMeTarget", name: str, lba_base: int,
                 num_blocks: int):
        self.target = target
        self.sim = target.sim
        self.name = name
        self.lba_base = lba_base
        self._num_blocks = num_blocks
        self.queue: list[_MDevRequest] = []

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def block_bytes(self) -> int:
        return LBA_BYTES

    def read(self, lba: int, nblocks: int, want_data: bool = False) -> Event:
        return self._enqueue(int(IOOpcode.READ), lba, nblocks, None, want_data)

    def write(self, lba: int, nblocks: int, payload: Optional[bytes] = None) -> Event:
        return self._enqueue(int(IOOpcode.WRITE), lba, nblocks, payload, False)

    def flush(self) -> Event:
        return self._enqueue(int(IOOpcode.FLUSH), 0, 0, None, False)

    def _enqueue(self, opcode, lba, nblocks, payload, want_data) -> Event:
        done = self.sim.event(name=f"{self.name}.io")
        req = _MDevRequest(opcode, lba, nblocks, payload, want_data, done,
                           self.sim.now, self)

        def guest_submit():
            yield self.sim.timeout(self.target.config.guest_submit_ns)
            self.queue.append(req)

        self.sim.spawn(guest_submit(), name=f"{self.name}.gsub")
        return done


class MDevNVMeTarget:
    """The host kernel module: one polling core mediating one drive."""

    def __init__(self, host: Host, ssd: NVMeSSD,
                 config: MDevConfig = MDevConfig(), name: str = "mdev"):
        self.sim: Simulator = host.sim
        self.host = host
        self.ssd = ssd
        self.config = config
        self.name = name
        self.cores = host.cpu.dedicate(1, owner=name)
        self.vdisks: list[MDevVirtualDisk] = []
        self._pool = BufferPool(host.memory)
        self._pending: dict[int, tuple[_MDevRequest, int, int]] = {}
        self._next_cid = 0
        mem = host.memory
        depth = 1024
        sq = SubmissionQueue(mem, mem.alloc(depth * 64), depth, sqid=MDEV_QID)
        cq = CompletionQueue(mem, mem.alloc(depth * 16), depth, cqid=MDEV_QID)
        self._qp = ssd.attach_queue_pair(MDEV_QID, sq, cq)
        cq.irq_vector = None  # active polling, the module's signature
        self._busy_ns = 0
        self._started = False

    def create_vdisk(self, name: str, lba_base: int, num_blocks: int) -> MDevVirtualDisk:
        if (lba_base + num_blocks) > self.ssd.namespaces[1].num_blocks:
            raise SimulationError("mdev slice beyond the physical drive")
        vdisk = MDevVirtualDisk(self, name, lba_base, num_blocks)
        self.vdisks.append(vdisk)
        return vdisk

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.sim.spawn(self._poll_loop(), name=f"{self.name}.core")

    def _poll_loop(self):
        cfg = self.config
        while True:
            did = False
            for vdisk in self.vdisks:
                while vdisk.queue and not self._qp.sq.is_full:
                    req = vdisk.queue.pop(0)
                    did = True
                    self._busy_ns += cfg.submit_ns
                    yield self.sim.timeout(cfg.submit_ns)
                    self._mediate_submit(req)
            while True:
                cqe = self._qp.cq.poll()
                if cqe is None:
                    break
                did = True
                self._busy_ns += cfg.completion_ns
                yield self.sim.timeout(cfg.completion_ns)
                self._mediate_complete(cqe)
            if not did:
                yield self.sim.timeout(cfg.poll_interval_ns)

    def _mediate_submit(self, req: _MDevRequest) -> None:
        length = req.nblocks * LBA_BYTES
        buf = prp1 = prp2 = 0
        if length:
            buf = self._pool.get(length)
            if req.payload is not None:
                self.host.memory.mem_write(buf, length, req.payload)
            prp1, prp2 = build_prps(self.host.memory, buf, length)
        self._next_cid = (self._next_cid + 1) % 0xFFFF
        cid = self._next_cid
        sqe = SQE(opcode=req.opcode, cid=cid, nsid=1,
                  slba=req.vdisk.lba_base + req.lba,
                  nlb=max(0, req.nblocks - 1),
                  prp1=prp1, prp2=prp2, payload=req.payload,
                  submit_time_ns=req.start_ns)
        self._qp.sq.push(sqe)
        self._pending[cid] = (req, buf, length)
        self.host.fabric.cpu_write(self._qp.sq_doorbell, 4)

    def _mediate_complete(self, cqe) -> None:
        entry = self._pending.pop(cqe.cid, None)
        if entry is None:
            return
        req, buf, length = entry

        def guest_side():
            yield self.sim.timeout(self.config.guest_irq_ns)
            ok = cqe.status == int(StatusCode.SUCCESS)
            data = None
            if req.want_data and length:
                data = self.host.memory.mem_read(buf, length)
            if buf:
                self._pool.put(buf, length)
            req.done.succeed(
                CompletionInfo(ok, cqe.status, data, self.sim.now - req.start_ns)
            )

        self.sim.spawn(guest_side(), name=f"{self.name}.girq")

    def cpu_utilization(self, since: int = 0) -> float:
        elapsed = self.sim.now - since
        return self._busy_ns / elapsed if elapsed > 0 else 0.0
