"""Software storage mediation on dedicated polling cores.

One model serves both software baselines the paper compares against:
a host process dedicates CPU cores to poll guest request rings onto a
device SQ/CQ, and pays a CPU cost per request inline.

* SPDK vhost (the default :class:`SPDKConfig`), the comparison target
  of Figs. 1, 9, 13, 14: a user-space vhost target polling virtio
  rings.  Per-request CPU work (descriptor handling + data handling per
  byte) bounds throughput per core; dedicated cores are subtracted from
  what the host can sell (the TCO argument).  Calibration (DESIGN.md
  §5): one core ≈ 262 K 4K IOPS and ≈ 2.0 GB/s of 128K processing —
  reproducing the single-VM ratios of Fig. 9 — while a cross-core
  contention factor reproduces the "8 cores for 80% of four SSDs" shape
  of Fig. 1.
* MDev-NVMe (:data:`MDEV_CONFIG`), the Table I row ([32], USENIX
  ATC'18): a host kernel module mediating a physical drive into per-VM
  virtual controllers.  One polling core maps guest queues onto shadow
  queues with an LBA translation per command; there is no virtio
  descriptor layer and no segment processing, so mediation is cheap and
  performance stays close to native, MDev-NVMe's published result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..host.block import CompletionInfo
from ..host.cpu import Core
from ..host.environment import Host
from ..host.memory import BufferPool
from ..nvme.command import SQE
from ..nvme.prp import build_prps, pages_for, release_prps
from ..nvme.queues import CompletionQueue, SubmissionQueue
from ..nvme.spec import IOOpcode, LBA_BYTES, StatusCode
from ..nvme.ssd import NVMeSSD
from ..sim import Event, Resource, SimulationError, Simulator

__all__ = ["SPDKConfig", "MDEV_CONFIG", "VhostBlockDevice", "SPDKVhostTarget"]

VHOST_QID = 7  # the SPDK user-space driver's own I/O queue id


@dataclass(frozen=True)
class SPDKConfig:
    """CPU cost model of the vhost target."""

    per_op_ns: int = 3100  # virtio descriptor + NVMe submission handling
    #: requests are segmented at 4 KiB; a few segments ride the fast
    #: descriptor path, the rest pay indirect-descriptor handling —
    #: which is what makes 128K sequential I/O so expensive per core
    segment_bytes: int = 4096
    cheap_segments: int = 2
    per_segment_ns: int = 2050
    completion_ns: int = 600  # completion handling per I/O
    poll_interval_ns: int = 500  # idle-loop granularity
    contention_alpha: float = 0.08  # cross-core queue contention factor
    batch: int = 32  # max requests picked up per ring visit
    guest_submit_ns: int = 900  # guest virtio driver submission cost
    #: serialized guest virtqueue lock section (uncontended/contended),
    #: mirroring the guest NVMe queue lock of the passthrough schemes
    guest_vq_lock_ns: int = 900
    guest_vq_lock_contended_ns: int = 3150
    guest_irq_ns: int = 2500  # interrupt injection into the guest


#: MDev-NVMe's mediation costs: a shadow-queue copy + LBA translation per
#: command, no per-segment work, no guest virtqueue lock, and ring visits
#: as deep as the ring itself (the module's loops are unbounded)
MDEV_CONFIG = SPDKConfig(
    per_op_ns=900,
    per_segment_ns=0,
    completion_ns=500,
    poll_interval_ns=500,
    batch=1024,
    guest_submit_ns=700,
    guest_vq_lock_ns=0,
    guest_vq_lock_contended_ns=0,
    guest_irq_ns=2500,
)


@dataclass
class _VirtioRequest:
    opcode: int
    lba: int
    nblocks: int
    payload: Optional[bytes]
    want_data: bool
    done: Event
    start_ns: int
    vdev: "VhostBlockDevice"


class VhostBlockDevice:
    """The disk a VM sees (virtio-blk under vhost, a mediated NVMe device
    under MDev-NVMe); backed by a slice of one SSD."""

    def __init__(
        self,
        target: "SPDKVhostTarget",
        name: str,
        ssd_index: int,
        lba_base: int,
        num_blocks: int,
    ):
        self.target = target
        self.sim = target.sim
        self.name = name
        self.ssd_index = ssd_index
        self.lba_base = lba_base
        self._num_blocks = num_blocks
        self.ring: deque[_VirtioRequest] = deque()
        self.submitted = 0
        self.completed = 0
        self._vq_lock = Resource(self.sim, 1, name=f"{name}.vqlock")

    # BlockTarget ------------------------------------------------------------
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
        start = self.sim.now
        req = _VirtioRequest(opcode, lba, nblocks, payload, want_data, done, start, self)

        cfg = self.target.config

        def guest_submit():
            contended = not self._vq_lock.try_acquire()
            if contended:
                yield self._vq_lock.acquire()
            yield self.sim.timeout(
                cfg.guest_vq_lock_contended_ns if contended else cfg.guest_vq_lock_ns
            )
            self._vq_lock.release()
            self.ring.append(req)
            self.submitted += 1

        self.sim.spawn(guest_submit(), name=f"{self.name}.gsub",
                       delay=cfg.guest_submit_ns)
        return done


class SPDKVhostTarget:
    """The vhost process: N dedicated polling cores over M SSDs."""

    def __init__(
        self,
        host: Host,
        ssds: list[NVMeSSD],
        num_cores: int = 1,
        config: SPDKConfig = SPDKConfig(),
        name: str = "vhost",
    ):
        if not ssds:
            raise SimulationError("vhost needs at least one SSD")
        self.sim: Simulator = host.sim
        self.host = host
        self.ssds = ssds
        self.config = config
        self.name = name
        self.cores: list[Core] = host.cpu.dedicate(num_cores, owner=name)
        self.vdevs: list[VhostBlockDevice] = []
        self._pool = BufferPool(host.memory)
        self._pending: dict[tuple[int, int], _InflightIO] = {}
        self._next_cid = 0
        self._qps = []
        self._busy_ns = [0] * num_cores
        self._started = False
        for ssd in ssds:
            mem = host.memory
            depth = 1024
            sq = SubmissionQueue(mem, mem.alloc(depth * 64), depth, sqid=VHOST_QID)
            cq = CompletionQueue(mem, mem.alloc(depth * 16), depth, cqid=VHOST_QID)
            qp = ssd.attach_queue_pair(VHOST_QID, sq, cq)
            cq.irq_vector = None  # SPDK polls; no interrupts
            self._qps.append(qp)

    @property
    def contention_factor(self) -> float:
        return 1.0 + self.config.contention_alpha * (len(self.cores) - 1)

    def create_vdev(
        self, name: str, ssd_index: int, lba_base: int, num_blocks: int
    ) -> VhostBlockDevice:
        if lba_base + num_blocks > self.ssds[ssd_index].namespaces[1].num_blocks:
            raise SimulationError(f"{name}: slice beyond the physical drive")
        vdev = VhostBlockDevice(self, name, ssd_index, lba_base, num_blocks)
        self.vdevs.append(vdev)
        return vdev

    def start(self) -> None:
        """Launch one poll loop per dedicated core."""
        if self._started:
            return
        self._started = True
        for core_idx in range(len(self.cores)):
            self.sim.spawn(self._poll_loop(core_idx), name=f"{self.name}.core{core_idx}")

    # ------------------------------------------------------------- poll loop
    def _assigned(self, core_idx: int, items: list) -> list:
        """Round-robin start offset per core; every core serves every
        ring (multi-queue work sharing), paying the cross-core
        contention factor for it."""
        if not items:
            return []
        offset = core_idx % len(items)
        return items[offset:] + items[:offset]

    def _poll_loop(self, core_idx: int):
        """One dedicated core: CPU work is spent *inline*, so a request's
        processing time is part of its latency and the core's throughput
        is bounded by the per-op cost — both vhost realities."""
        cfg = self.config
        factor = self.contention_factor
        while True:
            did_work = False
            # submissions: visit each assigned vdev ring
            for vdev in self._assigned(core_idx, self.vdevs):
                picked = 0
                while vdev.ring and picked < cfg.batch:
                    qp = self._qps[vdev.ssd_index]
                    if qp.sq.is_full:
                        break
                    req = vdev.ring.popleft()
                    picked += 1
                    did_work = True
                    cpu = int(self._submit_cpu_ns(req) * factor)
                    self._busy_ns[core_idx] += cpu
                    yield self.sim.timeout(cpu)
                    self._submit(req)
            # completions: poll every SSD CQ (work-shared)
            for ssd_index, qp in enumerate(self._qps):
                reaped = 0
                while reaped < cfg.batch:
                    cqe = qp.cq.poll()
                    if cqe is None:
                        break
                    reaped += 1
                    did_work = True
                    cpu = int(cfg.completion_ns * factor)
                    self._busy_ns[core_idx] += cpu
                    yield self.sim.timeout(cpu)
                    self._complete(ssd_index, cqe)
                if reaped:
                    self.host.fabric.cpu_write(qp.cq_doorbell, 4)
            if not did_work:
                yield self.sim.timeout(cfg.poll_interval_ns)

    def _submit_cpu_ns(self, req: _VirtioRequest) -> int:
        cfg = self.config
        length = req.nblocks * LBA_BYTES
        segments = -(-length // cfg.segment_bytes)
        slow_segments = max(0, segments - cfg.cheap_segments)
        return cfg.per_op_ns + slow_segments * cfg.per_segment_ns

    def _submit(self, req: _VirtioRequest) -> None:
        """Translate + submit one request (CPU already charged)."""
        length = req.nblocks * LBA_BYTES
        qp = self._qps[req.vdev.ssd_index]
        buf = 0
        prp1 = prp2 = 0
        if length:
            buf = self._pool.get(length)
            if req.payload is not None:
                self.host.memory.mem_write(buf, length, req.payload)
            prp1, prp2 = build_prps(self._pool, pages_for(buf, length))
        self._next_cid = (self._next_cid + 1) % 0xFFFF
        cid = self._next_cid
        sqe = SQE(
            opcode=req.opcode, cid=cid, nsid=1,
            slba=req.vdev.lba_base + req.lba, nlb=max(0, req.nblocks - 1),
            prp1=prp1, prp2=prp2, payload=req.payload,
            submit_time_ns=req.start_ns,
        )
        qp.sq.push(sqe)
        self._pending[(req.vdev.ssd_index, cid)] = _InflightIO(req, buf, length, prp2)
        self.host.fabric.cpu_write(qp.sq_doorbell, 4)

    def _complete(self, ssd_index: int, cqe) -> None:
        entry = self._pending.pop((ssd_index, cqe.cid), None)
        if entry is None:
            return
        req = entry.request
        req.vdev.completed += 1

        def guest_side(_ev) -> None:
            ok = cqe.status == int(StatusCode.SUCCESS)
            data = None
            if req.want_data and entry.length:
                data = self.host.memory.mem_read(entry.buf, entry.length)
            if entry.buf:
                self._pool.put(entry.buf, entry.length)
                release_prps(self._pool, entry.buf, entry.prp2, entry.length)
            latency = self.sim.now - req.start_ns
            req.done.succeed(CompletionInfo(ok, cqe.status, data, latency))

        self.sim.timeout(self.config.guest_irq_ns).callbacks.append(guest_side)

    # -------------------------------------------------------------- reporting
    def cpu_utilization(self, since: int = 0) -> float:
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return sum(self._busy_ns) / (elapsed * len(self.cores))


@dataclass
class _InflightIO:
    request: _VirtioRequest
    buf: int
    length: int
    prp2: int
