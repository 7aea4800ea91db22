"""BMS-Engine: the FPGA datapath of BM-Store.

Implements the seven-step I/O path of paper Fig. 6:

① host rings a front doorbell; the engine fetches the SQE via the PF/VF
② LBA mapping translates host LBA -> (SSD, physical LBA); QoS gates
③ the remapped command (with *global PRPs*) goes into the host
   adaptor's SQ and the back-end SSD doorbell is rung
④ the SSD fetches the command from the adaptor SQ
⑤ the SSD's DMA TLPs hit the engine, which recovers the function id
   from the global address and routes them to host memory (zero-copy)
⑥ the SSD writes its CQE into the adaptor CQ
⑦ the engine relays the CQE to the host CQ and raises MSI-X

The engine owns two PCIe attachments: a front-end port on the *host*
fabric (SR-IOV: 4 PF + 124 VF) and the root of its own *back-end*
fabric where the SSDs live.  Chip memory holds the adaptor rings and
the converted global PRP lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..host.environment import Host
from ..host.memory import BufferPool, HostMemory
from ..nvme.command import SQE, alloc_cqe, alloc_sqe
from ..nvme.namespace import Namespace
from ..nvme.prp import build_prps, prp_list_bytes, release_prps, walk_prps
from ..nvme.spec import CQE_BYTES, LBA_BYTES, SQE_BYTES, IOOpcode, StatusCode
from ..nvme.ssd import NVMeSSD
from ..obs import IOSpan, MetricsRegistry
from ..pcie.fabric import PCIeFabric
from ..sim import BandwidthLink, Event, SimulationError, Simulator
from .axi import AXIBus
from .dma_routing import (
    DMA_MODELS,
    DescriptorRingDMA,
    RouteStats,
    decode_global_prp,
    encode_global_prp,
    is_global_prp,
)
from .hooks import EngineHooks, run_handler
from .host_adaptor import BackendSlot, HostAdaptor
from .lba_mapping import CHUNK_BYTES, MappingEntry, MappingTable
from .qos import QoSLimits, QoSModule
from .sriov_layer import FrontEndFunction, SRIOVLayer
from .target_controller import TargetController

__all__ = ["EngineTimings", "EngineNamespace", "BMSEngine"]


@dataclass(frozen=True)
class EngineTimings:
    """FPGA pipeline latencies (250 MHz design; DESIGN.md §5).

    The sum over a small command lands the paper's ~3 us of extra
    latency versus a native disk.
    """

    doorbell_ns: int = 200  # front BAR write -> fetch engine wakeup
    pipeline_ns: int = 1500  # LBA map + QoS check + PRP rewrite stages
    issue_ns: int = 20  # per-command pipeline issue slot (50 M cmd/s)
    adaptor_push_ns: int = 100  # write into adaptor SQ (chip RAM)
    cqe_relay_ns: int = 150  # adaptor CQ -> front CQ relay stage
    cut_through_ns: int = 120  # per-TLP DMA routing latency (step ⑤)
    monitor_sample_ns: int = 80  # I/O counter update path
    passthrough_db_ns: int = 40  # front doorbell -> back doorbell relay


@dataclass
class EngineNamespace:
    """An engine-level namespace: size, placement, QoS, binding."""

    key: str
    namespace: Namespace
    table: MappingTable
    chunks: list[tuple[int, int]]  # (ssd_id, physical chunk index)
    bound_fn: Optional[int] = None
    #: step-⑤ routing machinery for this namespace's DMA traffic
    dma_model: str = "register"


@dataclass
class _FnStats:
    read_ops: int = 0
    write_ops: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    errors: int = 0


class _BackendRootSpace:
    """Root address space of the back-end domain: the DMA router.

    Untagged addresses are engine chip memory (adaptor rings, PRP
    lists); addresses carrying a function-id tag are global PRPs and
    get routed out of the matching front-end function into host memory.
    """

    def __init__(self, engine: "BMSEngine"):
        self.engine = engine

    @property
    def access_ns(self) -> int:
        return self.engine.chip_memory.access_ns

    def mem_write(self, addr: int, length: int, data) -> None:
        engine = self.engine
        if is_global_prp(addr):
            engine._route_dma_write(addr, length, data)
            return
        mem = engine._prp_pool.memory_for(addr)
        mem.mem_write(addr, length, data)
        if mem is engine.chip_memory:
            engine.adaptor.notice_write(addr)

    def mem_read(self, addr: int, length: int):
        return self.engine._prp_pool.memory_for(addr).mem_read(addr, length)

    def mem_read_async(self, addr: int, length: int, reply) -> None:
        if is_global_prp(addr):
            self.engine._route_dma_read(addr, length).callbacks.append(
                lambda ev: reply(ev._value))
            return
        self.engine._prp_pool.read_async(addr, length, reply)


class BMSEngine:
    """The FPGA-based datapath component of BM-Store."""

    FRONT_BAR_BASE = 0x20_0000_0000

    def __init__(
        self,
        host: Host,
        timings: EngineTimings = EngineTimings(),
        front_lanes: int = 16,
        qos_enabled: bool = True,
        zero_copy: bool = True,
        chip_memory_bytes: int = 512 * 1024 * 1024,
        chunk_bytes: int = CHUNK_BYTES,
        name: str = "bms",
        obs: Optional[MetricsRegistry] = None,
        checks=None,
    ):
        self.sim: Simulator = host.sim
        self.host = host
        self.name = name
        # hot-path process and event names resolved once, not per command
        self._fetch_pname = name + ".fetch"
        self._cmd_pname = name + ".cmd"
        self._dmaw_pname = name + ".dmaw"
        self._dmarp_pname = name + ".dmarp"
        self._dmar_name = name + ".dmar"
        self._dmawv_name = name + ".dmawv"
        self._cqe_pname = name + ".cqe"
        self.timings = timings
        self.zero_copy = zero_copy
        self.chunk_bytes = chunk_bytes
        self.chunk_blocks = chunk_bytes // LBA_BYTES
        self.obs = obs
        #: (ns_key, direction) -> (ops counter, bytes counter) handles,
        #: cached so per-IO accounting skips the labeled-key build
        self._ns_io_counters: dict = {}
        self.route_stats = RouteStats()
        #: bound FaultInjector (hook points engine.dispatch /
        #: engine.backend); None = dormant, zero-cost
        self.faults = None
        #: bound CheckContext (prp checker arms this); None = dormant
        self.checks = None
        #: the optional features, each None until its armer runs; armed,
        #: they attach through ``self.hooks`` (core/hooks.py)
        self.volumes = None
        self.push = None
        self.cxl = None
        self.passthrough = None
        self.hooks = EngineHooks(self)
        self._io_ops = self.hooks.opcodes["io"]
        #: the full CheckContext, kept for binding tables/rings created later
        self._check_ctx = checks

        # front end: one port on the host fabric
        self.front_port = host.fabric.attach(name, lanes=front_lanes)
        self.front_bar_base = self.FRONT_BAR_BASE
        self.sriov = SRIOVLayer(self)

        # back end: the engine is the root of its own PCIe domain
        self.backend_fabric = PCIeFabric(self.sim, name=f"{name}.be")
        self.chip_memory = HostMemory(
            self.sim, chip_memory_bytes, access_ns=25, base=0x1000_0000,
            name=f"{name}.chipmem",
        )
        self.backend_fabric.set_root_handler(_BackendRootSpace(self))
        self.adaptor = HostAdaptor(
            self.sim, self.chip_memory, self.backend_fabric,
            push_ns=timings.adaptor_push_ns, cqe_relay_ns=timings.cqe_relay_ns,
        )
        self.adaptor.engine = self  # SATA/remote slots route DMA through us
        self.adaptor.checks = checks  # slots bind their rings at creation

        # store-and-forward path for the zero-copy ablation: FPGA DRAM
        self._chip_dram_bus = BandwidthLink(
            self.sim, 6.0e9, name=f"{name}.dram"
        )

        self.qos = QoSModule(self.sim, enabled=qos_enabled, obs=obs, checks=checks)
        self.target_controller = TargetController(self)
        self.axi = AXIBus(self.sim, name=f"{name}.axi")

        self.namespaces: dict[str, EngineNamespace] = {}
        self._free_chunks: list[list[int]] = []
        self._prp_pool = BufferPool(self.chip_memory)
        if checks is not None:
            checks.bind_engine(self)
            checks.bind_pool(self._prp_pool)
        #: when the pipeline's one issue slot next frees (step ② entry)
        self._issue_free_at = 0
        self._fn_stats: dict[int, _FnStats] = {}
        #: fn_id -> "descriptor" for namespaces on the ring-DMA model
        #: (absent = the default register-triggered cut-through FSM)
        self._dma_model_by_fn: dict[int, str] = {}
        self._desc_dma: Optional[DescriptorRingDMA] = None
        self.host_identify_pages: dict[int, object] = {}
        self.total_ios = 0
        self._register_axi_registers()

    # ------------------------------------------------------------------ setup
    #: the 2-bit SSD-id field of the mapping entry (Fig. 4a) bounds the
    #: number of back-end devices one engine can address
    MAX_BACKENDS = 4

    def _check_backend_capacity(self) -> None:
        if len(self.adaptor.slots) >= self.MAX_BACKENDS:
            raise SimulationError(
                f"mapping-entry SSD id is 2 bits: at most {self.MAX_BACKENDS} "
                "back-end devices per engine"
            )

    def _add_free_chunks(self, capacity_bytes: int) -> None:
        nchunks = min(64, capacity_bytes // self.chunk_bytes)
        self._free_chunks.append(list(range(int(nchunks))))

    def attach_ssd(self, ssd: NVMeSSD) -> BackendSlot:
        """Attach a back-end NVMe drive (created on ``self.backend_fabric``)."""
        self._check_backend_capacity()
        slot = self.adaptor.add_ssd(ssd)
        self._add_free_chunks(ssd.profile.capacity_bytes)
        return slot

    def attach_sata(self, disk) -> "object":
        """Attach a SATA device through the adaptor's SATA controller
        (the paper's §VI-A compatibility extension)."""
        from .backend_extensions import SATABackendSlot

        self._check_backend_capacity()
        slot = SATABackendSlot(self.adaptor, len(self.adaptor.slots), disk)
        self.adaptor.slots.append(slot)
        self._add_free_chunks(disk.profile.capacity_bytes)
        return slot

    def attach_remote(self, target, link) -> "object":
        """Attach a remote volume over the network (§VI-D future work)."""
        from .backend_extensions import RemoteBackendSlot

        self._check_backend_capacity()
        slot = RemoteBackendSlot(self.adaptor, len(self.adaptor.slots), target, link)
        self.adaptor.slots.append(slot)
        self._add_free_chunks(target.capacity_bytes)
        return slot

    @property
    def num_ssds(self) -> int:
        return len(self.adaptor.slots)

    # ------------------------------------------------------ optional features
    def _arm(self, attr: str, factory, *args):
        """The armers' one body: build the feature on first use.  Its
        constructor registers its hooks and opcodes (core/hooks.py)."""
        feature = getattr(self, attr)
        if feature is None:
            feature = factory(self, *args)
            setattr(self, attr, feature)
        return feature

    def volume_manager(self):
        """The CoW volume layer (core/volumes.py), armed on first use."""
        from .volumes import VolumeManager

        return self._arm("volumes", VolumeManager)

    def push_manager(self):
        """The pushdown program layer (push/), armed on first use."""
        from ..push import PushManager

        return self._arm("push", PushManager)

    def cxl_tier(self, timings=None):
        """The CXL-extended buffer tier (core/cxl.py), armed on first use."""
        from .cxl import CXLBufferTier

        return self._arm("cxl", CXLBufferTier, timings)

    def passthrough_mode(self):
        """I/O-queue passthrough (core/passthrough.py), armed on first use."""
        from .passthrough import Passthrough

        return self._arm("passthrough", Passthrough)

    # ---------------------------------------------------------- namespaces
    def create_namespace(
        self,
        key: str,
        size_bytes: int,
        placement: Optional[list[int]] = None,
        limits: Optional[QoSLimits] = None,
    ) -> EngineNamespace:
        """Carve a namespace out of back-end chunks (round-robin default)."""
        if key in self.namespaces:
            raise SimulationError(f"namespace {key} already exists")
        if self.num_ssds == 0:
            raise SimulationError("no back-end SSDs attached")
        nchunks = -(-size_bytes // self.chunk_bytes)
        order = placement or [i % self.num_ssds for i in range(nchunks)]
        if len(order) != nchunks:
            raise SimulationError("placement list must cover every chunk")
        chunks: list[tuple[int, int]] = []
        for ssd_id in order:
            free = self._free_chunks[ssd_id]
            if not free:
                for taken_ssd, taken_chunk in chunks:  # roll back
                    self._free_chunks[taken_ssd].append(taken_chunk)
                raise SimulationError(f"SSD {ssd_id} out of free chunks")
            chunks.append((ssd_id, free.pop(0)))
        ens = self.add_namespace(key, chunks, size_bytes // LBA_BYTES)
        if limits is not None:
            self.qos.configure(key, limits)
        for hook in self.hooks.ns_create:
            hook(ens)
        return ens

    def add_namespace(self, key: str, chunks: list, num_blocks: int) -> EngineNamespace:
        """Register namespace ``key`` over the given physical chunks: a
        fresh mapping table with one entry per chunk."""
        table = MappingTable(self.chunk_blocks, rows=max(1, -(-len(chunks) // 8)))
        if self._check_ctx is not None:
            self._check_ctx.bind_table(table)
        for idx, (ssd_id, chunk) in enumerate(chunks):
            table.set_entry(idx, MappingEntry(base_chunk=chunk, ssd_id=ssd_id))
        ns = Namespace(nsid=1, num_blocks=num_blocks)
        ens = self.namespaces[key] = EngineNamespace(key, ns, table, chunks)
        return ens

    def delete_namespace(self, key: str) -> None:
        """Tear a namespace down, with its QoS limits and whatever the
        teardown hooks keep per key.  Commands it still holds (in the
        QoS buffer, at a drive) drain on their own."""
        ens = self.namespaces.get(key)
        if ens is None:
            raise SimulationError(f"no namespace {key}")
        self.unbind_namespace(key)
        del self.namespaces[key]
        self.qos.forget(key)
        freeable = list(ens.chunks)
        for hook in self.hooks.ns_teardown:
            hook(ens, freeable)
        for ssd_id, chunk in freeable:
            self._free_chunks[ssd_id].append(chunk)

    def bind_namespace(self, key: str, fn_id: int) -> FrontEndFunction:
        """Attach a namespace to a front PF/VF (what the VM will see)."""
        ens = self.namespaces.get(key)
        if ens is None:
            raise SimulationError(f"no namespace {key}")
        fn = self.sriov.function_by_id(fn_id)
        if fn.ns_key is not None:
            raise SimulationError(f"function {fn_id} already has a namespace")
        fn.namespaces[1] = ens.namespace
        fn.ns_key = key
        ens.bound_fn = fn_id
        if ens.dma_model == "descriptor":
            self._dma_model_by_fn[fn_id] = "descriptor"
        self._fn_stats.setdefault(fn_id, _FnStats())
        return fn

    def unbind_namespace(self, key: str) -> None:
        ens = self.namespaces.get(key)
        if ens is None or ens.bound_fn is None:
            return
        self._dma_model_by_fn.pop(ens.bound_fn, None)
        self.sriov.function_by_id(ens.bound_fn).unbind()
        ens.bound_fn = None

    def set_dma_model(self, key: str, model: str) -> None:
        """Pick the step-⑤ DMA machinery for one namespace's traffic."""
        if model not in DMA_MODELS:
            raise SimulationError(f"dma model {model!r} not one of {DMA_MODELS}")
        ens = self.namespaces.get(key)
        if ens is None:
            raise SimulationError(f"no namespace {key}")
        ens.dma_model = model
        if ens.bound_fn is not None:
            if model == "descriptor":
                self._dma_model_by_fn[ens.bound_fn] = "descriptor"
            else:
                self._dma_model_by_fn.pop(ens.bound_fn, None)

    # ------------------------------------------------------------ front path
    def on_front_doorbell(self, fn_id: int, qid: int) -> None:
        fn = self.sriov.functions.get(fn_id)
        if fn is None:
            return
        qp = fn.queue_pairs.get(qid)
        if qp is None:
            return
        if qid != 0 and fn.passthrough is not None:
            fn.passthrough.ring(qid)  # the drive fetches guest SQEs itself
            return
        self.sim.spawn(self._fetch_loop(fn, qid, qp), name=self._fetch_pname,
                       delay=self.timings.doorbell_ns)

    def _fetch_loop(self, fn: FrontEndFunction, qid: int, qp):
        """Step ①, from ``doorbell_ns`` after the front doorbell: one
        command process per published SQE, one issue slot apart."""
        sq = qp.sq
        while True:
            while sq.tail != sq.head:
                addr = sq.consume_addr()
                self.sim.spawn(self._process_cmd(fn, qid, addr),
                               name=self._cmd_pname)
                yield self.sim.timeout(self.timings.issue_ns)
            # shadow-doorbell rings re-check after arming the wakeup so
            # tails published without an MMIO are never stranded
            if not (qp.sq.shadow_mode and qp.sq.rearm_doorbell()):
                break

    def _process_cmd(self, fn: FrontEndFunction, qid: int, sqe_addr: int):
        t_start = self.sim.now
        sqe = yield self.front_port.mem_read(sqe_addr, SQE_BYTES)
        if not isinstance(sqe, SQE):
            raise SimulationError(f"{self.name}: no SQE at {sqe_addr:#x}")
        span = sqe.span
        if span is not None:
            span.stamp("doorbell", t_start)
        yield from self.target_controller.dispatch(fn, qid, sqe)

    # ---------------------------------------------------------------- I/O path
    def _handle_io(self, fn: FrontEndFunction, qid: int, sqe: SQE):
        ens = self.namespaces.get(fn.ns_key) if fn.ns_key else None
        if ens is None:
            self.post_front_cqe(fn, qid, sqe.cid, int(StatusCode.INVALID_NAMESPACE), 0,
                                span=sqe.span)
            return

        # FLUSH fans out to every SSD backing the namespace
        if sqe.opcode == int(IOOpcode.FLUSH):
            yield from self._handle_flush(fn, qid, sqe, ens)
            return

        # vendor I/O opcode: its handler owns the command
        handler = self._io_ops.get(sqe.opcode)
        if handler is not None:
            status = yield from run_handler(handler, fn, qid, sqe, ens)
            self.post_front_cqe(fn, qid, sqe.cid, int(status), 0, span=sqe.span)
            return

        nblocks = sqe.num_blocks
        length = nblocks * LBA_BYTES
        yield self.pipeline_stage()

        span = sqe.span
        # ② LBA mapping
        extents = yield from self.map_io(ens, sqe.opcode, sqe.slba, nblocks,
                                         span)
        if extents is None:
            self._fn_stats[fn.fn_id].errors += 1
            if self.obs is not None:
                self.obs.counter("ns_errors", ns=fn.ns_key).inc()
            self.post_front_cqe(fn, qid, sqe.cid, int(StatusCode.LBA_OUT_OF_RANGE), 0,
                                span=span)
            return

        if span is not None:
            span.stamp("lba_map", self.sim.now)

        # ② QoS: over-threshold commands sit in the command buffer
        gate = self.qos.admit(fn.ns_key, length, span=span)
        if gate is not None:
            yield gate
        if span is not None:
            span.stamp("qos", self.sim.now)

        # resolve the host PRP pages (fetch the PRP list if present)
        list_bytes = prp_list_bytes(sqe.prp1, length)
        prp_list = None
        if list_bytes:
            prp_list = yield self.front_port.mem_read(sqe.prp2, list_bytes)
        host_pages = walk_prps(sqe.prp1, sqe.prp2, length, prp_list)
        if self.checks is not None:
            self.checks.on_prp_chain(
                host_pages, length, span=span,
                memory_name=self.host.memory.name, where=self.name,
            )

        # ③ forward one back-end command per extent with global PRPs
        # (paper Fig. 4b: each host page tagged with the function id)
        fn_id = fn.fn_id
        self.forward_io(sqe.opcode, extents,
                        [encode_global_prp(fn_id, addr) for addr in host_pages],
                        sqe.payload, span, self._front_done(fn, qid, sqe))
        if span is not None:
            span.stamp("forward", self.sim.now)

        self._account_io(fn_id, sqe.opcode, length, ns_key=fn.ns_key)

    def _handle_flush(self, fn: FrontEndFunction, qid: int, sqe: SQE, ens: EngineNamespace):
        yield self.sim.timeout(self.timings.pipeline_ns)
        # one data-less command per backing SSD: a one-block extent at
        # LBA 0 with null PRPs
        ssd_ids = sorted({ssd_id for ssd_id, _ in ens.chunks})
        self.forward_io(int(IOOpcode.FLUSH), [(ssd_id, 0, 1) for ssd_id in ssd_ids],
                        [0] * len(ssd_ids), None, None,
                        self._front_done(fn, qid, sqe))

    def pipeline_stage(self) -> Event:
        """Step ②'s entry: the pipeline's single issue slot, FIFO, for
        ``issue_ns``, then the ``pipeline_ns`` stages.  Both delays are
        known when the command arrives, so the slot is a busy-until
        clock and the whole stage one timer."""
        now = self.sim.now
        start = now if now > self._issue_free_at else self._issue_free_at
        timings = self.timings
        self._issue_free_at = start + timings.issue_ns
        return self.sim.timeout(start + timings.issue_ns + timings.pipeline_ns - now)

    def _front_done(self, fn: FrontEndFunction, qid: int, sqe: SQE):
        """Step ⑦ for a forwarded front command: the fanned-in status."""
        def on_done(status: int) -> None:
            if status != int(StatusCode.SUCCESS):
                self._fn_stats[fn.fn_id].errors += 1
            span = sqe.span
            if span is not None:
                span.stamp("backend_done", self.sim.now)
            self.post_front_cqe(fn, qid, sqe.cid, status, 0, span=span)

        return on_done

    def map_io(self, ens: EngineNamespace, opcode: int, slba: int,
               nblocks: int, span: Optional[IOSpan]):
        """Step ②: the write hooks, then LBA translation.

        Generator returning ``[(ssd_id, physical_lba, nblocks), ...]``,
        or ``None`` when the range falls outside the namespace.  Host
        commands and pushdown hops both map through here.
        """
        write_hooks = self.hooks.write
        if write_hooks and opcode == int(IOOpcode.WRITE):
            for hook in write_hooks:
                fault = hook(ens, slba, nblocks, span)
                if fault is not None:
                    yield from fault
        try:
            extents = ens.table.translate_extent(slba, nblocks)
        except SimulationError as exc:
            from ..checks.runtime import InvariantViolation

            if isinstance(exc, InvariantViolation):
                raise  # a checker violation must surface, not complete as EIO
            return None
        if slba + nblocks > ens.namespace.num_blocks:
            return None
        return extents

    def forward_io(self, opcode: int, extents, pages: list[int], payload,
                   span: Optional[IOSpan], on_done) -> None:
        """Step ③: one back-end command per extent, fanned in to ``on_done``.

        ``pages`` holds one resolved DMA page address per block (global
        PRPs for host commands, pooled chip-buffer pages for pushdown
        hops).  A fragment's PRP list (if it needs one) lives in a
        pooled buffer, freed when the last extent completes; then
        ``on_done(status)`` runs with SUCCESS, or with a failed extent's
        status.
        """
        pool = self._prp_pool
        chains: list[tuple[int, int, int]] = []
        fanin = [len(extents), int(StatusCode.SUCCESS)]

        def on_complete(status: int) -> None:
            if status != int(StatusCode.SUCCESS):
                fanin[1] = status
            fanin[0] -= 1
            if fanin[0] == 0:
                for prp1, prp2, length in chains:
                    release_prps(pool, prp1, prp2, length)
                on_done(fanin[1])

        block_off = 0
        for ssd_id, plba, cnt in extents:
            prp1, prp2 = build_prps(pool, pages[block_off : block_off + cnt])
            chains.append((prp1, prp2, cnt * LBA_BYTES))
            frag_payload = None
            if payload is not None:
                frag_payload = payload[block_off * LBA_BYTES :][: cnt * LBA_BYTES]
            fwd = alloc_sqe(
                opcode=opcode, cid=0, nsid=1, slba=plba, nlb=cnt - 1,
                prp1=prp1, prp2=prp2, payload=frag_payload,
                submit_time_ns=self.sim.now,
            )
            fwd.span = span  # the back-end SSD stamps ssd_dma on it
            self.adaptor.slot_for(ssd_id).forward(fwd, on_complete)
            block_off += cnt

    # ----------------------------------------------------- DMA request routing
    def _descriptor_engine(self) -> DescriptorRingDMA:
        if self._desc_dma is None:
            self._desc_dma = DescriptorRingDMA(
                self.sim, self.front_port, name=f"{self.name}.descdma"
            )
        return self._desc_dma

    def _route_dma_write(self, gaddr: int, length: int, data) -> None:
        """Step ⑤: SSD DMA write at a global address -> host memory."""
        fn_id, host_addr, _ = decode_global_prp(gaddr)
        self._check_fn(fn_id)
        self.route_stats.note_write(length)
        if self._dma_model_by_fn.get(fn_id) == "descriptor":
            self._descriptor_engine().submit_write(host_addr, length, data)
            return
        self._route_write(host_addr, length, data, None)

    def _route_write(self, host_addr: int, length: int, data,
                     landed: Optional[Event]) -> None:
        """Cut-through routing is a fixed per-TLP delay (Fig. 4b): one
        timer, then a posted write out of the front port.  ``landed``,
        if given, fires when the write reaches host memory."""
        if not self.zero_copy:
            self.sim.spawn(self._route_write_proc(host_addr, length, data, landed),
                           name=self._dmaw_pname)
            return

        def forward(_ev: Event) -> None:
            self._front_write(host_addr, length, data, landed)

        self.sim.timeout(self.timings.cut_through_ns).callbacks.append(forward)

    def _front_write(self, host_addr: int, length: int, data,
                     landed: Optional[Event]) -> None:
        if landed is None:
            self.front_port.post_write(host_addr, length, data)
        else:
            self.sim.redirect(landed, self.front_port.mem_write(host_addr, length, data))

    def _route_write_proc(self, host_addr: int, length: int, data,
                          landed: Optional[Event]):
        """The store-and-forward ablation: through FPGA DRAM (in, then
        out), then the cut-through stage."""
        yield self._chip_dram_bus.transfer(length)
        yield self._chip_dram_bus.transfer(length, extra_ns=self.timings.cut_through_ns)
        self._front_write(host_addr, length, data, landed)

    def route_dma_write_event(self, gaddr: int, length: int, data) -> Event:
        """Like the TLP-triggered routing, but returns the delivery event
        (used by the SATA/remote adaptor stages, which need ordering)."""
        fn_id, host_addr, _ = decode_global_prp(gaddr)
        self._check_fn(fn_id)
        self.route_stats.note_write(length)
        landed = self.sim.pooled_event(self._dmawv_name)
        self._route_write(host_addr, length, data, landed)
        return landed

    def _route_dma_read(self, gaddr: int, length: int) -> Event:
        """Step ⑤ for writes: SSD DMA read at a global address.  The
        returned event stands in for the front-port read issued after
        the cut-through delay, which then resumes its waiters itself."""
        fn_id, host_addr, _ = decode_global_prp(gaddr)
        self._check_fn(fn_id)
        self.route_stats.note_read(length)
        if self._dma_model_by_fn.get(fn_id) == "descriptor":
            return self._descriptor_engine().submit_read(host_addr, length)
        done = self.sim.pooled_event(self._dmar_name)
        if not self.zero_copy:
            self.sim.spawn(self._route_read_proc(host_addr, length, done),
                           name=self._dmarp_pname)
            return done

        def fetch(_ev: Event) -> None:
            self.sim.redirect(done, self.front_port.mem_read(host_addr, length))

        self.sim.timeout(self.timings.cut_through_ns).callbacks.append(fetch)
        return done

    def _route_read_proc(self, host_addr: int, length: int, done: Event):
        """The store-and-forward ablation of a routed read."""
        yield self.sim.timeout(self.timings.cut_through_ns)
        data = yield self.front_port.mem_read(host_addr, length)
        yield self._chip_dram_bus.transfer(length)
        yield self._chip_dram_bus.transfer(length)
        done.succeed(data)

    def _check_fn(self, fn_id: int) -> None:
        if fn_id not in self.sriov.functions:
            raise SimulationError(f"DMA routed to unknown function {fn_id}")

    # ------------------------------------------------------------- completion
    def post_front_cqe(self, fn: FrontEndFunction, qid: int, cid: int,
                       status: int, result: int,
                       span: Optional[IOSpan] = None) -> None:
        """Step ⑦: relay the completion into the host CQ + MSI-X."""
        self.sim.spawn(
            self._post_cqe_proc(fn, qid, cid, status, result, span),
            name=self._cqe_pname, delay=self.timings.cqe_relay_ns,
        )

    def _post_cqe_proc(self, fn, qid, cid, status, result, span=None):
        if not self.zero_copy:
            # store-and-forward ablation: PCIe ordering means the CQE
            # cannot pass the buffered data still draining out of the
            # engine's DRAM — completions are paced by the copy path
            backlog = self._chip_dram_bus.busy_until() - self.sim.now
            if backlog > 0:
                yield self.sim.timeout(backlog)
        qp = fn.queue_pairs.get(qid)
        if qp is None:
            return
        cqe = alloc_cqe(cid, status, qp.sq.head, qid, result)
        target = qp.cq.slot_addr(qp.cq.tail)
        yield self.front_port.mem_write(target, CQE_BYTES, None)
        qp.cq.post_slot(cqe)
        if span is not None:
            span.stamp("complete", self.sim.now)
        if qp.cq.irq_vector is not None:
            qp.cq.note_cqe(self.sim, self._front_irq_thunk(fn, qp.cq))

    def _front_irq_thunk(self, fn: FrontEndFunction, cq):
        def fire() -> None:
            fn.function.msix.post_vector(self.front_port, cq.irq_vector)

        return fire

    # -------------------------------------------------------------- monitoring
    def _account_io(self, fn_id: int, opcode: int, length: int,
                    ns_key: Optional[str] = None) -> None:
        self.total_ios += 1
        stats = self._fn_stats.setdefault(fn_id, _FnStats())
        if opcode == int(IOOpcode.READ):
            stats.read_ops += 1
            stats.read_bytes += length
        elif opcode == int(IOOpcode.WRITE):
            stats.write_ops += 1
            stats.write_bytes += length
        if self.obs is not None and ns_key is not None:
            direction = "read" if opcode == int(IOOpcode.READ) else "write"
            handles = self._ns_io_counters.get((ns_key, direction))
            if handles is None:
                handles = self._ns_io_counters[(ns_key, direction)] = (
                    self.obs.counter("ns_ops", ns=ns_key, op=direction),
                    self.obs.counter("ns_bytes", ns=ns_key, op=direction),
                )
            handles[0].inc()
            handles[1].inc(length)

    def monitor_snapshot(self, fn_id: int) -> dict:
        stats = self._fn_stats.get(fn_id, _FnStats())
        return {
            "fn": fn_id,
            "read_ops": stats.read_ops,
            "write_ops": stats.write_ops,
            "read_bytes": stats.read_bytes,
            "write_bytes": stats.write_bytes,
            "errors": stats.errors,
        }

    # AXI register map: engine-global and per-function counters, read by
    # the BMS-Controller's I/O monitor over the AXI bus.
    AXI_TOTAL_IOS = 0x000
    AXI_NUM_SSDS = 0x008
    AXI_FN_BASE = 0x100
    AXI_FN_STRIDE = 0x40

    def _register_axi_registers(self) -> None:
        self.axi.register_read(self.AXI_TOTAL_IOS, lambda: self.total_ios)
        self.axi.register_read(self.AXI_NUM_SSDS, lambda: self.num_ssds)

        def reader(fn_id: int, field_name: str):
            def read() -> int:
                stats = self._fn_stats.get(fn_id, _FnStats())
                return getattr(stats, field_name)

            return read

        for fn_id in range(1, 129):
            base = self.AXI_FN_BASE + (fn_id - 1) * self.AXI_FN_STRIDE
            for off, field_name in (
                (0x00, "read_ops"), (0x08, "write_ops"),
                (0x10, "read_bytes"), (0x18, "write_bytes"), (0x20, "errors"),
            ):
                self.axi.register_read(base + off, reader(fn_id, field_name))

    # ------------------------------------------------------------- maintenance
    def surprise_remove(self, ssd_id: int) -> Optional[NVMeSSD]:
        """Surprise hot-remove of a backend drive: every in-flight and
        buffered command fails with NAMESPACE_NOT_READY; the front end
        survives and the slot awaits a replacement."""
        removal_hooks = self.hooks.slot_removal
        for before, _after in removal_hooks:
            if before is not None:
                before(ssd_id)
        removed = self.adaptor.slot_for(ssd_id).surprise_remove()
        for _before, after in removal_hooks:
            after(ssd_id, removed)
        if self.obs is not None:
            self.obs.counter("engine_surprise_removes", slot=str(ssd_id)).inc()
        return removed
