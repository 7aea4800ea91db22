"""Interrupt-driven host NVMe driver.

This is the standard-NVMe-driver role of the paper's transparency
story: the same driver code binds a native SSD, a BM-Store PF/VF, or a
VFIO-assigned device inside a VM, because all of them present standard
NVMe queues + doorbells + MSI-X.

Costs modeled per the active :class:`KernelProfile`: submission CPU
overhead, a serialized per-controller submission section (the classic
queue lock), IRQ entry cost, and a completion-path extra — plus, in a
VM, interrupt-injection latency supplied by the VM wrapper.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

from ..faults.plan import DriverFaultPolicy
from ..nvme.command import CQE, SQE, alloc_sqe, free_cqe, free_sqe
from ..nvme.namespace import Namespace
from ..nvme.prp import build_prps, pages_for, release_prps
from ..nvme.queues import CompletionQueue, QueuePair, SubmissionQueue
from ..nvme.spec import SQE_BYTES, AdminOpcode, IOOpcode, StatusCode
from ..obs import IOSpan
from ..pcie.function import PCIeFunction
from ..sim import Event, Resource, SimulationError, Simulator, Store
from .block import CompletionInfo
from .environment import Host
from .kernel_profile import KernelProfile
from .memory import PAGE_SIZE, BufferPool
from .policy import DEFAULT_POLICY, SubmissionPolicy

__all__ = ["NVMeControllerTarget", "NVMeDriver", "DriverStats"]

_PUSH_EXEC = int(IOOpcode.PUSH_EXEC)


class NVMeControllerTarget(Protocol):
    """What the driver binds to: any standard NVMe controller."""

    function: PCIeFunction
    namespaces: dict[int, Namespace]

    def attach_queue_pair(self, qid: int, sq: SubmissionQueue, cq: CompletionQueue) -> QueuePair:
        ...  # pragma: no cover

    def detach_queue_pair(self, qid: int) -> None:
        ...  # pragma: no cover

    def doorbell_addr(self, qid: int, is_cq: bool = False) -> int:
        ...  # pragma: no cover


class DriverStats:
    """Submission/completion/interrupt counters of one bound driver."""
    __slots__ = ("submitted", "completed", "errors", "interrupts",
                 "timeouts", "aborts", "retries", "retries_exhausted",
                 "doorbell_mmio", "doorbell_elided", "sqe_reclaims")

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.errors = 0
        self.interrupts = 0
        self.timeouts = 0
        self.aborts = 0
        self.retries = 0
        self.retries_exhausted = 0
        #: leaked SQEs (timed-out commands) recovered by their ring
        self.sqe_reclaims = 0
        #: MMIO doorbell writes actually issued (shadow/batched modes)
        self.doorbell_mmio = 0
        #: doorbell writes avoided by the shadow/batched machinery
        self.doorbell_elided = 0


class _Pending:
    """One submitted command awaiting its CQE: what completing it needs."""

    __slots__ = ("done", "start", "buf", "length", "want_data", "push",
                 "span", "sqe", "slot")

    def __init__(self, done: Event, start: int, buf: int, length: int,
                 want_data: bool, push: bool, span: Optional[IOSpan],
                 sqe: Optional[SQE], slot: Optional[int]):
        self.done = done
        self.start = start
        self.buf = buf
        self.length = length
        self.want_data = want_data
        self.push = push
        self.span = span
        #: the ring entry (None for admin commands, which are never
        #: reclaimed) and its slot index in the SQ
        self.sqe = sqe
        self.slot = slot


class NVMeDriver:
    """One bound NVMe controller, exposing the BlockTarget interface."""

    #: admin SQ/CQ depth; a ring holds at most depth - 1 entries
    ADMIN_DEPTH = 32

    def __init__(
        self,
        host: Host,
        controller: NVMeControllerTarget,
        nsid: int = 1,
        num_io_queues: int = 4,
        queue_depth: int = 1024,
        kernel: Optional[KernelProfile] = None,
        extra_submit_ns: int = 0,
        extra_completion_ns: int = 0,
        lock_ns: Optional[int] = None,
        contended_lock_ns: Optional[int] = None,
        name: str = "nvme0",
        fault_policy: Optional[DriverFaultPolicy] = None,
        policy: Optional[SubmissionPolicy] = None,
    ):
        self.sim: Simulator = host.sim
        self.host = host
        self.controller = controller
        self.nsid = nsid
        self.name = name
        self.kernel = kernel or host.kernel
        self.extra_submit_ns = extra_submit_ns
        self.extra_completion_ns = extra_completion_ns
        self.lock_ns = lock_ns if lock_ns is not None else self.kernel.submit_lock_ns
        # under contention the lock section costs more (cacheline
        # bouncing, vCPU scheduling); uncontended it is just the hold
        self.contended_lock_ns = (
            contended_lock_ns if contended_lock_ns is not None else self.lock_ns
        )
        self.stats = DriverStats()
        self.obs = obs = self.sim.obs
        # handles + names resolved once; the submission/completion path
        # must not rebuild labeled metric keys or f-strings per I/O
        self._io_event_name = name + ".io"
        self._submit_pname = name + ".submit"
        self._iosup_pname = name + ".iosup"
        self._c_submitted: dict[int, Any] = {}
        self._c_interrupts: dict[int, Any] = {}
        self._c_completed: dict[int, Any] = {}
        self._c_errors = obs.counter("driver_errors", driver=name)
        self._h_latency = obs.histogram("io_latency_ns", driver=name)
        #: submission policy: doorbell mode + CQE coalescing.  The
        #: default reproduces the classic MMIO-per-command,
        #: IRQ-per-CQE path with an identical event sequence.
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self._unrung: dict[int, int] = {}
        self._batch_timer_live: set[int] = set()
        # per-command timeout, abort and retry; None = unsupervised
        # submission, no supervisor process or timer per I/O.  Like the
        # world's checks and faults (and unlike its always-present
        # metrics registry), this dormant state is kept for speed.
        self.fault_policy = fault_policy
        self._pool = BufferPool(host.memory)
        self._lock = Resource(self.sim, 1, name=f"{name}.sqlock")
        self._pending: dict[tuple[int, int], _Pending] = {}
        self._next_cid: dict[int, int] = {}
        self._qps: dict[int, QueuePair] = {}
        self._slots: dict[int, Resource] = {}
        self._cqe_stores: dict[int, Store] = {}
        #: per-queue hard-IRQ timer callbacks, built once
        self._irq_handlers: dict[int, Any] = {}
        self._rr = 0
        #: admin commands in flight (bounded to ADMIN_DEPTH - 1) and the
        #: submitters blocked on a full admin ring, woken FIFO
        self._admin_outstanding = 0
        self._admin_waiters: list[Event] = []
        self._setup_admin_queue()
        self._setup_io_queues(num_io_queues, queue_depth)

    # ------------------------------------------------------------- queue setup
    def _make_queue_pair(self, qid: int, depth: int) -> QueuePair:
        mem = self.host.memory
        sq = SubmissionQueue(mem, mem.alloc(depth * 64), depth, sqid=qid, cqid=qid)
        sq.on_reclaim = self._note_reclaims
        cq = CompletionQueue(mem, mem.alloc(depth * 16), depth, cqid=qid)
        if qid != 0:
            # the admin queue always runs the classic immediate path
            if self.policy.doorbell == "shadow":
                sq.shadow_mode = True
            if self.policy.coalescing:
                cq.coalesce_threshold = self.policy.coalesce_threshold
                cq.coalesce_timeout_ns = self.policy.coalesce_timeout_ns
            self._unrung[qid] = 0
        qp = self.controller.attach_queue_pair(qid, sq, cq)
        addr, data = self.host.irq.allocate(lambda _v, q=qid: self._on_interrupt(q))
        self.controller.function.msix.configure(qid, addr, data)
        cq.irq_vector = qid
        self._qps[qid] = qp
        self._next_cid[qid] = 0
        q = str(qid)
        self._c_interrupts[qid] = self.obs.counter(
            "driver_interrupts", driver=self.name, qid=q)
        if qid != 0:  # the admin queue never submits/completes I/O
            self._c_submitted[qid] = self.obs.counter(
                "driver_submitted", driver=self.name, qid=q)
            self._c_completed[qid] = self.obs.counter(
                "driver_completed", driver=self.name, qid=q)
        self._cqe_stores[qid] = Store(self.sim, name=f"{self.name}.cqe{qid}")
        self._irq_handlers[qid] = lambda _ev, q=qid: self._irq_proc(q)
        self.sim.spawn(self._completion_worker(qid), name=f"{self.name}.sirq{qid}")
        return qp

    def _setup_admin_queue(self) -> None:
        self._make_queue_pair(0, self.ADMIN_DEPTH)

    def _setup_io_queues(self, count: int, depth: int) -> None:
        for qid in range(1, count + 1):
            self._make_queue_pair(qid, depth)
            self._slots[qid] = Resource(self.sim, depth - 1, name=f"{self.name}.q{qid}")
        self._qid_ring = sorted(self._slots)

    @property
    def io_queue_ids(self) -> list[int]:
        return sorted(self._slots)

    @property
    def namespace(self) -> Namespace:
        ns = self.controller.namespaces.get(self.nsid)
        if ns is None:
            raise SimulationError(f"{self.name}: namespace {self.nsid} not found")
        return ns

    # --------------------------------------------------------- BlockTarget API
    @property
    def num_blocks(self) -> int:
        return self.namespace.num_blocks

    @property
    def block_bytes(self) -> int:
        return self.namespace.block_bytes

    def read(self, lba: int, nblocks: int, want_data: bool = False) -> Event:
        return self._submit_io(int(IOOpcode.READ), lba, nblocks, None, want_data)

    def write(self, lba: int, nblocks: int, payload: Optional[bytes] = None) -> Event:
        return self._submit_io(int(IOOpcode.WRITE), lba, nblocks, payload, False)

    def flush(self) -> Event:
        return self._submit_io(int(IOOpcode.FLUSH), 0, 0, None, False)

    # ------------------------------------------------------------- pushdown
    def install_push_program(self, program: dict) -> Event:
        """Install a pushdown program on this driver's namespace via the
        in-band vendor admin path (the engine validates it)."""
        return self.admin(AdminOpcode.PUSH_INSTALL, payload=program)

    def uninstall_push_program(self) -> Event:
        return self.admin(AdminOpcode.PUSH_UNINSTALL)

    def push_exec(self, invocation: dict) -> Event:
        """Run one installed-program invocation at the engine.

        The invocation object rides in a single DMA page; the engine's
        interpreter parks a :class:`~repro.push.manager.PushResult` back
        at the same page, returned as ``CompletionInfo.data``.
        """
        done = self.sim.event(name=self._io_event_name)
        self.sim.start(self._push_proc(invocation, done),
                       name=self._submit_pname)
        return done

    def _push_proc(self, invocation: dict, done: Event):
        # the submission body is shared; the process keeps its own
        # generator name, which the dispatch-order fingerprints hash
        yield from self._submit_proc(_PUSH_EXEC, 0, 0, invocation, False, done)

    # ---------------------------------------------------------------- submit
    def _submit_io(
        self,
        opcode: int,
        lba: int,
        nblocks: int,
        payload: Optional[bytes],
        want_data: bool,
    ) -> Event:
        done = self.sim.event(name=self._io_event_name)
        if self.fault_policy is not None:
            self.sim.start(
                self._supervised_proc(opcode, lba, nblocks, payload, want_data, done),
                name=self._iosup_pname,
            )
        else:
            self.sim.start(
                self._submit_proc(opcode, lba, nblocks, payload, want_data, done),
                name=self._submit_pname,
            )
        return done

    def _pick_queue(self) -> int:
        qids = self._qid_ring
        self._rr = (self._rr + 1) % len(qids)
        return qids[self._rr]

    _SPAN_OPS = {
        int(IOOpcode.READ): "read",
        int(IOOpcode.WRITE): "write",
        int(IOOpcode.FLUSH): "flush",
        _PUSH_EXEC: "push",
    }

    def _supervised_proc(self, opcode, lba, nblocks, payload, want_data, done):
        """Error-hardened submission: per-command timeout, Abort +
        bounded exponential-backoff retry, requeue on hot-plug errors.

        The same command is re-driven through the normal submission
        path on each attempt; the caller's ``done`` event fires exactly
        once, with the final (possibly failed) :class:`CompletionInfo`.
        """
        policy = self.fault_policy
        start = self.sim.now
        last_status = int(StatusCode.ABORTED_BY_REQUEST)
        attempts = max(1, policy.max_retries + 1)
        for attempt in range(attempts):
            handle: dict[str, Any] = {}
            inner = self.sim.event(name=f"{self.name}.attempt")
            self.sim.start(
                self._submit_proc(opcode, lba, nblocks, payload, want_data,
                                  inner, handle),
                name=f"{self.name}.submit",
            )
            if policy.timeout_ns:
                deadline = self.sim.timeout(policy.timeout_ns)
                yield self.sim.any_of([inner, deadline])
                if not deadline.processed:
                    # the attempt finished first; firing later would
                    # only poke the settled AnyOf, so drop the timer
                    deadline.cancel()
            else:
                yield inner
            if inner.triggered:
                info: CompletionInfo = inner.value
                last_status = int(info.status)
                if info.ok:
                    done.succeed(CompletionInfo(
                        True, info.status, info.data, self.sim.now - start))
                    return
                if last_status not in policy.retryable:
                    done.succeed(CompletionInfo(
                        False, info.status, None, self.sim.now - start))
                    return
            else:
                # per-command deadline fired before any CQE arrived
                self.stats.timeouts += 1
                self.obs.counter("driver_timeouts", driver=self.name).inc()
                yield from self._abort_attempt(handle)
                last_status = int(StatusCode.ABORTED_BY_REQUEST)
            if attempt == attempts - 1:
                break
            delay = min(policy.backoff_cap_ns, policy.backoff_base_ns * (1 << attempt))
            if delay > 0:
                yield self.sim.timeout(delay)
            self.stats.retries += 1
            self.obs.counter("driver_retries", driver=self.name).inc()
        self.stats.retries_exhausted += 1
        self.obs.counter("driver_retries_exhausted", driver=self.name).inc()
        done.succeed(CompletionInfo(False, last_status, None, self.sim.now - start))

    def _abort_attempt(self, handle: dict):
        """Host-side cleanup + NVMe Abort for a timed-out command."""
        qid, cid = handle.get("qid"), handle.get("cid")
        if qid is None or cid is None:
            # the attempt never reached the SQ (e.g. queued on a full
            # queue); it will complete on its own and be ignored
            return
        ctx = self._pending.pop((qid, cid), None)
        if ctx is not None:
            if ctx.buf:
                self._pool.put(ctx.buf, ctx.length)
            if qid in self._slots:
                self._slots[qid].release()
            span = ctx.span
            if span is not None:
                span.note_fault("host_timeout")
                self.obs.finish_span(span)
            # the SQE cannot be freed — its stale ring entry may still
            # be fetched — but the ring tracks it and retires it once
            # the slot is overwritten or the queue is re-attached.  Its
            # PRP list stays allocated for the same reason.
            if ctx.sqe is not None:
                self._qps[qid].sq.note_leaked(ctx.slot, ctx.sqe)
        self.stats.aborts += 1
        self.obs.counter("driver_aborts", driver=self.name).inc()
        yield self.admin(AdminOpcode.ABORT, cdw10=(cid & 0xFFFF) | (qid << 16))

    def _submit_proc(self, opcode, lba, nblocks, payload, want_data, done,
                     handle: Optional[dict] = None):
        """Submit one command.  A push invocation (``payload`` of a
        PUSH_EXEC) rides in one DMA page rather than in the SQE."""
        start = self.sim.now
        span = None
        if self.obs.want_span():
            span = IOSpan(self._SPAN_OPS.get(opcode, hex(opcode)), origin=self.name)
            span.stamp("submit", start)
        yield self.sim.timeout(self.kernel.submit_overhead_ns + self.extra_submit_ns)
        qid = self._pick_queue()
        slots = self._slots[qid]
        if not slots.try_acquire():
            yield slots.acquire()

        push = opcode == _PUSH_EXEC
        if push:
            length = PAGE_SIZE  # one page carries the invocation + result
        elif opcode == int(IOOpcode.FLUSH):
            length = 0
        else:
            length = nblocks * self.block_bytes
        buf = 0
        prp1 = prp2 = 0
        if length:
            buf = self._pool.get(length)
            if push:
                self.host.memory.store_obj(buf, payload)
                payload = None
            elif payload is not None:
                self.host.memory.mem_write(buf, length, payload)
            prp1, prp2 = build_prps(self._pool, pages_for(buf, length))

        lock = self._lock
        contended = not lock.try_acquire()
        if contended:
            yield lock.acquire()
        yield self.sim.timeout(self.contended_lock_ns if contended else self.lock_ns)
        qp = self._qps[qid]
        while qp.sq.is_full:
            # timed-out commands release their queue slot before the
            # device fetches their stale SQE, so the ring can be full
            # even with a slot held; block until the consumer frees one
            lock.release()
            yield qp.sq.wait_space(self.sim)
            if not lock.try_acquire():
                yield lock.acquire()
            yield self.sim.timeout(self.contended_lock_ns)
        cid = self._next_cid[qid] = (self._next_cid[qid] + 1) % 0xFFFF
        if handle is not None:
            handle["qid"], handle["cid"] = qid, cid
        sqe = alloc_sqe(
            opcode=opcode, cid=cid, nsid=self.nsid,
            slba=lba, nlb=max(0, nblocks - 1),
            prp1=prp1, prp2=prp2, payload=payload,
            submit_time_ns=start,
        )
        if span is not None:
            sqe.span = span
        addr = qp.sq.push(sqe)
        self._pending[(qid, cid)] = _Pending(
            done, start, buf, length, want_data, push, span, sqe,
            (addr - qp.sq.base) // SQE_BYTES)
        self.stats.submitted += 1
        self._c_submitted[qid].inc()
        lock.release()
        self._ring_doorbell(qid, qp)

    # ---------------------------------------------------------------- doorbell
    def _ring_doorbell(self, qid: int, qp: QueuePair) -> None:
        """Mode-dependent doorbell after a push into ``qp.sq``.  The
        MMIO write is posted: the submitter never waits on it.

        ``immediate`` is the exact legacy tail: one posted MMIO write
        per command, no extra state touched.
        """
        mode = self.policy.doorbell
        if mode == "immediate" or qid == 0:
            self.stats.doorbell_mmio += 1
            self.host.fabric.cpu_write(qp.sq_doorbell, 4)
            return
        sq = qp.sq
        if mode == "shadow":
            if sq.publish_tail():
                if sq.checks is not None:
                    sq.checks.on_db_flush(sq, 1)
                self.stats.doorbell_mmio += 1
                self.host.fabric.cpu_write(qp.sq_doorbell, 4)
            else:
                self.stats.doorbell_elided += 1
            return
        # batched: accumulate, ring on depth / ring-full / deadline
        self._unrung[qid] += 1
        if self._unrung[qid] >= self.policy.batch_depth or sq.is_full:
            self._flush_doorbell(qid, qp)
        else:
            self.stats.doorbell_elided += 1
            if (self.policy.batch_timeout_ns > 0
                    and qid not in self._batch_timer_live):
                self._batch_timer_live.add(qid)
                self.sim.timeout(self.policy.batch_timeout_ns).callbacks.append(
                    lambda _ev: self._batch_deadline(qid))

    def _flush_doorbell(self, qid: int, qp: QueuePair) -> None:
        batched, self._unrung[qid] = self._unrung[qid], 0
        if batched <= 0:
            return
        if qp.sq.checks is not None:
            qp.sq.checks.on_db_flush(qp.sq, batched)
        self.stats.doorbell_mmio += 1
        self.host.fabric.cpu_write(qp.sq_doorbell, 4)

    def _batch_deadline(self, qid: int) -> None:
        """Deterministic flush of a partial doorbell batch, so shallow
        queues are never stranded waiting for peers that never come;
        runs ``batch_timeout_ns`` after the first unrung push."""
        self._batch_timer_live.discard(qid)
        if self._unrung.get(qid, 0):
            self._flush_doorbell(qid, self._qps[qid])

    # ------------------------------------------------------------- completion
    def _note_reclaims(self, count: int) -> None:
        """Ring callback: leaked SQEs were just retired by their ring."""
        self.stats.sqe_reclaims += count
        self.obs.counter("sqe_reclaims", driver=self.name).inc(count)

    def _on_interrupt(self, qid: int) -> None:
        self.stats.interrupts += 1
        self._c_interrupts[qid].inc()
        self.sim.timeout(self.kernel.irq_overhead_ns).callbacks.append(
            self._irq_handlers[qid])

    def _irq_proc(self, qid: int) -> None:
        """The hard-IRQ handler, ``irq_overhead_ns`` after the MSI-X:
        drain the CQ into the softirq's store, ring the CQ head."""
        qp = self._qps[qid]
        drained = 0
        while True:
            cqe = qp.cq.poll()
            if cqe is None:
                break
            drained += 1
            self._cqe_stores[qid].post(cqe)
        if drained:
            self.host.fabric.cpu_write(qp.cq_doorbell, 4)

    def _completion_worker(self, qid: int):
        """Per-queue softirq: completions are handled *serially*, so the
        kernel's completion-path cost bounds per-queue completion rate
        (the effect behind Table VI's Fedora dip)."""
        extra = self.kernel.completion_extra_ns + self.extra_completion_ns
        store = self._cqe_stores[qid]
        while True:
            cqe = yield store.get()
            if extra:
                yield self.sim.timeout(extra)
            self._finalize(qid, cqe)

    def _finalize(self, qid: int, cqe: CQE):
        ctx = self._pending.pop((qid, cqe.cid), None)
        if ctx is None:
            free_cqe(cqe)
            return
        self.stats.completed += 1
        status = cqe.status
        ok = status == int(StatusCode.SUCCESS)
        free_cqe(cqe)
        if not ok:
            self.stats.errors += 1
        data = None
        if ctx.push:
            # the engine parked a PushResult over the invocation object;
            # always pop it so the recycled buffer never shadows later
            # byte reads at the same address
            obj = self.host.memory.pop_obj(ctx.buf)
            if ok:
                data = obj
        elif ctx.want_data and ctx.length:
            data = self.host.memory.mem_read(ctx.buf, ctx.length)
        sqe = ctx.sqe
        if ctx.buf:
            self._pool.put(ctx.buf, ctx.length)
            release_prps(self._pool, sqe.prp1, sqe.prp2, ctx.length)
        if qid in self._slots:
            self._slots[qid].release()
        elif qid == 0:
            if self._admin_waiters:
                # hand the admin slot straight to the oldest waiter
                self._admin_waiters.pop(0).succeed()
            else:
                self._admin_outstanding -= 1
        latency = self.sim.now - ctx.start
        if qid != 0:
            span = ctx.span
            if span is not None:
                span.stamp("interrupt", self.sim.now)
                self.obs.finish_span(span)
            self._c_completed[qid].inc()
            if not ok:
                self._c_errors.inc()
            self._h_latency.observe(latency)
        # the completed command's SQE is dead: the device fetched it (a
        # CQE exists) and the consumer is past its ring slot, so it can
        # rejoin the free list.  Timed-out commands never get here.
        if sqe is not None:
            free_sqe(sqe)
        ctx.done.succeed(CompletionInfo(ok, status, data, latency))

    # ----------------------------------------------------------------- admin
    def admin(
        self,
        opcode: AdminOpcode,
        cdw10: int = 0,
        cdw11: int = 0,
        prp1: int = 0,
        payload: Any = None,
    ) -> Event:
        done = self.sim.event(name=f"{self.name}.admin")
        self.sim.start(
            self._admin_proc(opcode, cdw10, cdw11, prp1, payload, done),
            name=f"{self.name}.adminp",
        )
        return done

    def _admin_proc(self, opcode, cdw10, cdw11, prp1, payload, done):
        start = self.sim.now
        yield self.sim.timeout(self.kernel.submit_overhead_ns)
        # bound the in-flight admin commands so neither admin ring can
        # overflow (an abort storm after mass timeouts would); below the
        # bound this is a counter bump and costs no event
        if self._admin_outstanding >= self.ADMIN_DEPTH - 1:
            wait = self.sim.pooled_event(name=f"{self.name}.adminq")
            self._admin_waiters.append(wait)
            yield wait  # woken holding the slot a completion freed
        else:
            self._admin_outstanding += 1
        qp = self._qps[0]
        cid = self._next_cid[0] = (self._next_cid[0] + 1) % 0xFFFF
        sqe = SQE(opcode=int(opcode), cid=cid, nsid=self.nsid,
                  cdw10=cdw10, cdw11=cdw11, prp1=prp1, payload=payload,
                  submit_time_ns=start)
        qp.sq.push(sqe)
        self._pending[(0, cid)] = _Pending(done, start, 0, 0, False, False,
                                           None, None, None)
        self.stats.submitted += 1
        self.host.fabric.cpu_write(qp.sq_doorbell, 4)
