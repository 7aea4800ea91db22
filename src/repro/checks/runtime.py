"""Runtime invariant checkers for the simulated datapath.

A world arms one :class:`CheckContext` on its simulator
(:meth:`~repro.sim.Simulator.arm`), and each part caches
``sim.checker(name)`` — the context when it runs checker ``name``,
else ``None`` — in its ``self.checks`` when it is constructed: a
dormant hook point is one attribute test, no allocation.  Checkers are **pure observers**: they never create simulation
events, never draw randomness, and never mutate component state, so a
checked run is byte-identical to an unchecked run — the only output is
``repro.obs`` coverage counters and, on a violation, a raised
:class:`InvariantViolation`.

==========  ============================================================
checker     invariants (hook points)
==========  ============================================================
``ring``    NVMe ring state machine: head/tail bounds, one-step tail
            advance, SQ/CQ overflow, device/host phase-bit sequencing
            (``nvme.queues`` push/consume/post/poll)
``prp``     PRP chain validity: non-first entries page-aligned, chain
            length covers the transfer, no page inside a freed DMA
            buffer, no double-free (``nvme.ssd``, ``core.engine``,
            ``host.memory.BufferPool``)
``lba``     Fig. 4a mapping: chunk-granular translation, 2-bit SSD id,
            injective valid entries, cleared entries read back as zero
            (``core.lba_mapping``); CoW refcount shadow: no shared
            chunk freed while references remain (``core.volumes``)
``qos``     Fig. 5 conservation: per-namespace FIFO admission order,
            token non-negativity, buffered = admitted - fast-passed,
            passed accounting (``core.qos``)
``kernel``  sim-kernel sanity: clock monotonicity, no event dispatched
            twice (``sim.kernel`` dispatch loop)
``push``    pushdown sandbox confinement: every backend I/O a program
            issues stays inside the LBA windows it was installed with
            and inside the namespace (``push.manager``)
==========  ============================================================
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Any, Iterable, Optional, Sequence

from ..obs.metrics import MetricsRegistry
from ..sim import SimulationError
from ..sim.units import PAGE_SIZE

__all__ = [
    "CHECKER_NAMES",
    "CheckContext",
    "InvariantViolation",
]

#: every named checker, in documentation order
CHECKER_NAMES = ("ring", "prp", "lba", "qos", "kernel", "push")


class InvariantViolation(SimulationError):
    """A runtime invariant failed; carries the IOSpan context when known.

    Attributes
    ----------
    checker:
        Which named checker tripped (one of :data:`CHECKER_NAMES`).
    span:
        The in-flight :class:`~repro.obs.spans.IOSpan` at the violation
        point, or ``None`` when the hook has no command context.
    context:
        Hook-specific key/value details (ring indices, addresses, ...).
    """

    def __init__(self, checker: str, message: str, span=None, **context: Any):
        self.checker = checker
        self.message = message
        self.span = span
        self.context = context
        super().__init__(str(self))

    def __str__(self) -> str:
        parts = [f"[{self.checker}] {self.message}"]
        if self.context:
            detail = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
            parts.append(f"({detail})")
        if self.span is not None:
            stamps = ", ".join(
                f"{stage}@{t}" for stage, t in self.span.ordered_stamps()
            )
            parts.append(
                f"span[op={self.span.op} origin={self.span.origin} {stamps}]"
            )
        return " ".join(parts)


class _RingState:
    """Checker-owned shadow of one ring's indices and phases."""

    __slots__ = ("expected_tail", "expected_head", "unconsumed",
                 "device_phase", "host_phase")

    def __init__(self, ring):
        self.expected_tail = ring.tail
        self.expected_head = ring.head
        self.unconsumed = (ring.tail - ring.head) % ring.depth
        self.device_phase = getattr(ring, "_device_phase", 1)
        self.host_phase = getattr(ring, "_host_phase", 1)


class _QoSState:
    """Per-namespace admission ledger."""

    __slots__ = ("next_seq", "outstanding", "admitted", "granted", "fast")

    def __init__(self):
        self.next_seq = 0
        self.outstanding: deque[int] = deque()
        self.admitted = 0
        self.granted = 0
        self.fast = 0


class _FreedRanges:
    """Freed DMA-buffer ranges of one memory space (pure bookkeeping).

    Ranges may overlap: a region freed at one size can be handed out
    again at another start and freed again.  :meth:`covering` answers
    by a bisect over the sorted range starts, looking back no further
    than the widest range ever freed.
    """

    __slots__ = ("ranges", "_starts", "_order", "_next", "_widest")

    def __init__(self):
        self.ranges: dict[int, int] = {}  # start -> nbytes
        self._starts: list[int] = []  # sorted keys of ranges
        self._order: dict[int, int] = {}  # start -> insertion number
        self._next = 0
        self._widest = 0

    def free(self, addr: int, nbytes: int) -> bool:
        """Record a free; returns False on double-free."""
        if addr in self.ranges:
            return False
        self.ranges[addr] = nbytes
        self._order[addr] = self._next
        self._next += 1
        bisect.insort(self._starts, addr)
        self._widest = max(self._widest, nbytes)
        return True

    def alloc(self, addr: int) -> None:
        if self.ranges.pop(addr, None) is not None:
            del self._order[addr]
            del self._starts[bisect.bisect_left(self._starts, addr)]

    def covering(self, addr: int) -> Optional[tuple[int, int]]:
        """The earliest-freed range containing ``addr``, or None."""
        starts = self._starts
        hi = bisect.bisect_right(starts, addr)
        lo = bisect.bisect_right(starts, addr - self._widest, 0, hi)
        best = None
        for start in starts[lo:hi]:
            if addr < start + self.ranges[start] and (
                    best is None or self._order[start] < self._order[best]):
                best = start
        return None if best is None else (best, self.ranges[best])


class CheckContext:
    """Armed invariant checkers; arm it on a world's simulator.

    ``checkers`` selects a subset of :data:`CHECKER_NAMES` (``None`` =
    all).  Every check invocation increments the per-checker
    ``invariant_checks{checker=...}`` counter on ``obs`` (the world's
    registry; a context built alone keeps a counters-only one of its
    own) plus the local :attr:`counts`, so clean runs can prove the
    hooks actually executed.
    """

    def __init__(self, checkers: Optional[Iterable[str]] = None, obs=None):
        names = tuple(CHECKER_NAMES) if checkers is None else tuple(checkers)
        unknown = [n for n in names if n not in CHECKER_NAMES]
        if unknown:
            raise ValueError(
                f"unknown checker(s) {unknown} (known: {', '.join(CHECKER_NAMES)})"
            )
        self.enabled = frozenset(names)
        obs = obs or MetricsRegistry(mode="counters")
        self.ring = "ring" in self.enabled
        self.prp = "prp" in self.enabled
        self.lba = "lba" in self.enabled
        self.qos = "qos" in self.enabled
        self.kernel = "kernel" in self.enabled
        self.push = "push" in self.enabled
        self.counts: dict[str, int] = {name: 0 for name in names}
        self.violations = 0
        self._counters = {name: obs.counter("invariant_checks", checker=name)
                          for name in names}
        self._rings: dict[int, _RingState] = {}
        self._ring_objs: list = []  # keep rings alive so ids stay unique
        self._qos_states: dict[int, _QoSState] = {}
        self._qos_objs: list = []
        self._lba_fwd: dict[int, dict[int, tuple[int, int]]] = {}
        self._lba_rev: dict[int, dict[tuple[int, int], int]] = {}
        self._lba_objs: list = []
        #: VolumeManager id -> shadow refcounts (ssd_id, chunk) -> count
        self._vol_refs: dict[int, dict[tuple[int, int], int]] = {}
        self._vol_objs: list = []
        #: PushManager id -> key -> (windows, namespace blocks), recorded
        #: at install time so the I/O-time check is independent of the
        #: manager's own (possibly tampered) program copy
        self._push_progs: dict[int, dict[str, tuple[tuple, int]]] = {}
        self._push_objs: list = []
        self._freed: dict[str, _FreedRanges] = {}
        self._last_now = 0

    # ------------------------------------------------------------- plumbing
    def _note(self, checker: str) -> None:
        self.counts[checker] += 1
        self._counters[checker].inc()

    def _fail(self, checker: str, message: str, span=None, **context) -> None:
        self.violations += 1
        raise InvariantViolation(checker, message, span=span, **context)

    # ------------------------------------------------------- state accessors
    def _ring_state(self, ring) -> _RingState:
        state = self._rings.get(id(ring))
        if state is None:
            state = self._rings[id(ring)] = _RingState(ring)
            self._ring_objs.append(ring)
        return state

    def _qos_state(self, nsq) -> _QoSState:
        state = self._qos_states.get(id(nsq))
        if state is None:
            state = self._qos_states[id(nsq)] = _QoSState()
            self._qos_objs.append(nsq)
        return state

    # ------------------------------------------------------- hooks: ring
    def on_sq_push(self, sq, span=None) -> None:
        """Pre-mutation hook in :meth:`SubmissionQueue.push`."""
        self._note("ring")
        state = self._ring_state(sq)
        depth = sq.depth
        if not (0 <= sq.tail < depth and 0 <= sq.head < depth):
            self._fail("ring", f"SQ{sq.sqid} index out of bounds", span=span,
                       head=sq.head, tail=sq.tail, depth=depth)
        if sq.tail != state.expected_tail:
            self._fail("ring", f"SQ{sq.sqid} tail moved without a push", span=span,
                       tail=sq.tail, expected=state.expected_tail)
        if (sq.tail - sq.head) % depth >= depth - 1:
            self._fail("ring", f"SQ{sq.sqid} overflow: push into a full ring",
                       span=span, head=sq.head, tail=sq.tail, depth=depth)
        state.expected_tail = (sq.tail + 1) % depth

    def on_sq_consume(self, sq) -> None:
        """Pre-mutation hook in :meth:`SubmissionQueue.consume_addr`."""
        self._note("ring")
        state = self._ring_state(sq)
        depth = sq.depth
        if (sq.tail - sq.head) % depth == 0:
            self._fail("ring", f"SQ{sq.sqid} underflow: consume from an empty ring",
                       head=sq.head, tail=sq.tail, depth=depth)
        state.expected_head = (sq.head + 1) % depth

    def on_cq_post(self, cq, cqe) -> None:
        """Pre-mutation hook in :meth:`CompletionQueue.post_slot`.

        Runs *before* the CQ-full guard, so it independently detects the
        silent-overwrite bug even if that guard is removed.
        """
        self._note("ring")
        state = self._ring_state(cq)
        depth = cq.depth
        if not (0 <= cq.tail < depth and 0 <= cq.head < depth):
            self._fail("ring", f"CQ{cq.cqid} index out of bounds",
                       head=cq.head, tail=cq.tail, depth=depth)
        if state.unconsumed >= depth - 1:
            self._fail(
                "ring",
                f"CQ{cq.cqid} overflow: posting over an unconsumed completion",
                head=cq.head, tail=cq.tail, depth=depth,
                unconsumed=state.unconsumed,
            )
        if cq._device_phase != state.device_phase:
            self._fail("ring", f"CQ{cq.cqid} device phase out of sequence",
                       phase=cq._device_phase, expected=state.device_phase)
        state.unconsumed += 1
        if (cq.tail + 1) % depth == 0:
            state.device_phase ^= 1

    def on_cq_poll(self, cq, cqe) -> None:
        """Post-success hook in :meth:`CompletionQueue.poll`."""
        self._note("ring")
        state = self._ring_state(cq)
        if state.unconsumed <= 0:
            self._fail("ring",
                       f"CQ{cq.cqid} consumed a completion that was never posted",
                       head=cq.head, tail=cq.tail)
        if cqe.phase != state.host_phase:
            self._fail("ring", f"CQ{cq.cqid} polled a stale-phase completion",
                       phase=cqe.phase, expected=state.host_phase)
        state.unconsumed -= 1
        if (cq.head + 1) % cq.depth == 0:
            state.host_phase ^= 1

    def on_db_flush(self, sq, batched: int) -> None:
        """Doorbell-flush hook: a shadow/batched MMIO ring covering
        ``batched`` accumulated submissions (the shadow tail must have
        caught up with the real tail when the MMIO finally fires)."""
        self._note("ring")
        if not 1 <= batched <= sq.depth:
            self._fail("ring",
                       f"SQ{sq.sqid} doorbell flush of {batched} entries "
                       f"outside 1..{sq.depth}",
                       head=sq.head, tail=sq.tail, depth=sq.depth)
        if sq.shadow_mode and sq.shadow_tail != sq.tail:
            self._fail("ring",
                       f"SQ{sq.sqid} shadow tail {sq.shadow_tail} stale at "
                       f"doorbell time (tail {sq.tail})",
                       head=sq.head, tail=sq.tail)

    def on_cq_coalesce(self, cq, pending: int) -> None:
        """CQE-coalescing hook: completions held back awaiting the
        threshold/timer must never cover the whole ring — that would
        mean an IRQ the host cannot be owed."""
        self._note("ring")
        if not 1 <= pending < cq.depth:
            self._fail("ring",
                       f"CQ{cq.cqid} coalescer holding {pending} CQEs "
                       f"(ring depth {cq.depth})",
                       head=cq.head, tail=cq.tail, depth=cq.depth)
        if pending > cq.coalesce_threshold:
            self._fail("ring",
                       f"CQ{cq.cqid} coalescer overshot threshold "
                       f"{cq.coalesce_threshold} with {pending} pending",
                       head=cq.head, tail=cq.tail)

    # -------------------------------------------------------- hooks: prp
    def on_prp_chain(self, pages: Sequence[int], length: int, span=None,
                     memory_name: Optional[str] = None, where: str = "") -> None:
        """Validate a resolved PRP chain (SSD or engine side).

        Page-alignment holds for global PRPs too: the Fig. 4b tag lives
        in bits [63:56], a multiple of the page size, so ``% PAGE_SIZE``
        sees only the host offset bits.
        """
        self._note("prp")
        if not pages:
            self._fail("prp", f"{where}: empty PRP chain for {length}B", span=span)
        first_off = pages[0] % PAGE_SIZE
        expected = max(1, (first_off + length + PAGE_SIZE - 1) // PAGE_SIZE)
        if len(pages) != expected:
            self._fail("prp",
                       f"{where}: PRP chain does not cover the transfer",
                       span=span, pages=len(pages), expected=expected,
                       length=length)
        for entry in pages[1:]:
            if entry % PAGE_SIZE:
                self._fail("prp",
                           f"{where}: non-first PRP entry is not page-aligned",
                           span=span, entry=hex(entry))
        freed = self._freed.get(memory_name) if memory_name else None
        if freed is not None and freed.ranges:
            for entry in pages:
                hit = freed.covering(entry)
                if hit is not None:
                    self._fail("prp",
                               f"{where}: PRP entry points into freed memory",
                               span=span, entry=hex(entry),
                               freed=(hex(hit[0]), hit[1]))

    @staticmethod
    def _pool_owner(pool, addr: int) -> str:
        """The memory a pooled buffer lives in.

        Pools backed by a CXL tier hand out addresses from several
        memories (chip, CXL window, borrowed slot buffers); freed-range
        bookkeeping must follow the buffer to its owning space or a
        spilled double-free would be tracked against the wrong ranges.
        """
        owner = getattr(pool, "owner_name", None)
        if owner is not None:
            return owner(addr)
        return pool.memory.name

    def on_buffer_alloc(self, pool, addr: int, nbytes: int) -> None:
        freed = self._freed.get(self._pool_owner(pool, addr))
        if freed is not None:
            freed.alloc(addr)

    def on_buffer_free(self, pool, addr: int, nbytes: int) -> None:
        self._note("prp")
        owner = self._pool_owner(pool, addr)
        freed = self._freed.setdefault(owner, _FreedRanges())
        if not freed.free(addr, nbytes):
            self._fail("prp", "double free of a DMA buffer",
                       addr=hex(addr), nbytes=nbytes,
                       memory=owner)

    # -------------------------------------------------------- hooks: lba
    def _lba_maps(self, table):
        fwd = self._lba_fwd.get(id(table))
        if fwd is None:
            fwd = self._lba_fwd[id(table)] = {}
            self._lba_rev[id(table)] = {}
            self._lba_objs.append(table)
        return fwd, self._lba_rev[id(table)]

    def on_lba_set(self, table, index: int, entry) -> None:
        """Hook in :meth:`MappingTable.set_entry`: injectivity (Fig. 4a)."""
        self._note("lba")
        fwd, rev = self._lba_maps(table)
        key = (entry.ssd_id, entry.base_chunk)
        claimed = rev.get(key)
        if claimed is not None and claimed != index:
            self._fail("lba",
                       "mapping not injective: physical chunk mapped twice",
                       ssd_id=entry.ssd_id, base_chunk=entry.base_chunk,
                       chunk_index=index, already=claimed)
        old = fwd.get(index)
        if old is not None:
            rev.pop(old, None)
        fwd[index] = key
        rev[key] = index

    def on_lba_clear(self, table, index: int) -> None:
        fwd, rev = self._lba_maps(table)
        old = fwd.pop(index, None)
        if old is not None:
            rev.pop(old, None)

    def on_lba_invalid_read(self, table, host_lba: int, raw: int) -> None:
        """Hook in :meth:`MappingTable.translate` just before the
        invalid-entry fault: a cleared entry must read back as zero, or
        a later re-validation of the row resurrects a dead mapping."""
        self._note("lba")
        if raw != 0:
            self._fail("lba",
                       "invalid mapping entry holds a stale packed value",
                       host_lba=host_lba, raw=hex(raw))

    # --------------------------------------------- hooks: lba (CoW refcounts)
    def _vol_shadow(self, vm) -> dict:
        shadow = self._vol_refs.get(id(vm))
        if shadow is None:
            shadow = self._vol_refs[id(vm)] = {}
            self._vol_objs.append(vm)
        return shadow

    def on_chunk_incref(self, vm, phys: tuple, count: int) -> None:
        """Hook after a VolumeManager refcount bump; ``count`` is the
        manager's new value, which the shadow must agree with."""
        self._note("lba")
        shadow = self._vol_shadow(vm)
        shadow[phys] = shadow.get(phys, 0) + 1
        if shadow[phys] != count:
            self._fail("lba", "chunk refcount drifted from shadow on incref",
                       phys=phys, shadow=shadow[phys], actual=count)

    def on_chunk_decref(self, vm, phys: tuple, count: int) -> None:
        """Hook before a VolumeManager refcount drop (``count`` = value
        after the drop)."""
        self._note("lba")
        shadow = self._vol_shadow(vm)
        have = shadow.get(phys, 0)
        if have <= 0:
            self._fail("lba", "decref of a chunk with no shadow references",
                       phys=phys)
        shadow[phys] = have - 1
        if shadow[phys] != count:
            self._fail("lba", "chunk refcount drifted from shadow on decref",
                       phys=phys, shadow=shadow[phys], actual=count)

    def on_chunk_free(self, vm, phys: tuple) -> None:
        """Hook when a chunk returns to the engine free list: it must
        hold zero shadow references — freeing a chunk a snapshot or
        clone still maps would corrupt that volume."""
        self._note("lba")
        shadow = self._vol_shadow(vm)
        if shadow.get(phys, 0) != 0:
            self._fail("lba", "shared chunk freed while refcount > 0",
                       phys=phys, shadow=shadow.get(phys, 0))
        shadow.pop(phys, None)

    def on_lba_translate(self, table, host_lba: int, ssd_id: int,
                         plba: int) -> None:
        """Hook in :meth:`MappingTable.translate`: eqns (1)-(4) output."""
        self._note("lba")
        cs = table.chunk_blocks
        if plba % cs != host_lba % cs:
            self._fail("lba", "translation is not chunk-granular",
                       host_lba=host_lba, physical_lba=plba, chunk_blocks=cs)
        if not 0 <= ssd_id < 4:
            self._fail("lba", "SSD id exceeds the 2-bit mapping-entry field",
                       host_lba=host_lba, ssd_id=ssd_id)
        if plba < 0:
            self._fail("lba", "negative physical LBA",
                       host_lba=host_lba, physical_lba=plba)

    # -------------------------------------------------------- hooks: qos
    def on_qos_admit(self, nsq, span=None) -> int:
        """Hook at :meth:`_NamespaceQoS.admit` entry; returns the seq."""
        state = self._qos_state(nsq)
        seq = state.next_seq
        state.next_seq += 1
        state.admitted += 1
        state.outstanding.append(seq)
        return seq

    def on_qos_grant(self, nsq, seq: int, fast: bool, span=None) -> None:
        """Hook just before a gate succeeds (fast path or dispatcher)."""
        self._note("qos")
        state = self._qos_state(nsq)
        if not state.outstanding or state.outstanding[0] != seq:
            oldest = state.outstanding[0] if state.outstanding else None
            self._fail("qos",
                       f"{nsq.ns_key}: command granted out of admission order",
                       span=span, granted_seq=seq, oldest_outstanding=oldest,
                       fast_path=fast)
        state.outstanding.popleft()
        state.granted += 1
        if fast:
            state.fast += 1
        # raw token fields: the ``tokens`` property refills (mutates),
        # which an observer must never trigger
        if nsq.iops_bucket._tokens < -1e-9 or nsq.bw_bucket._tokens < -1e-9:
            self._fail("qos", f"{nsq.ns_key}: token bucket went negative",
                       span=span, iops_tokens=nsq.iops_bucket._tokens,
                       bw_tokens=nsq.bw_bucket._tokens)
        if nsq.passed_total != state.granted:
            self._fail("qos", f"{nsq.ns_key}: passed accounting drifted",
                       span=span, passed_total=nsq.passed_total,
                       granted=state.granted)
        if nsq.buffered_total != state.admitted - state.fast:
            self._fail("qos",
                       f"{nsq.ns_key}: buffered != admitted - fast-passed",
                       span=span, buffered_total=nsq.buffered_total,
                       admitted=state.admitted, fast_passed=state.fast)

    # ------------------------------------------------------ hooks: kernel
    def on_event_dispatch(self, sim, event) -> None:
        """Per-event hook in the kernel dispatch loop (step + run)."""
        self._note("kernel")
        now = sim.now
        if now < self._last_now:
            self._fail("kernel", "simulation clock moved backwards",
                       now=now, last=self._last_now, event=event.name)
        self._last_now = now
        if event._processed:
            self._fail("kernel", "event dispatched twice",
                       event=event.name, now=now)

    # -------------------------------------------------------- hooks: push
    def _push_shadow(self, manager) -> dict:
        shadow = self._push_progs.get(id(manager))
        if shadow is None:
            shadow = self._push_progs[id(manager)] = {}
            self._push_objs.append(manager)
        return shadow

    def on_push_install(self, manager, key: str, program, ns_blocks: int) -> None:
        """Hook in :meth:`PushManager.install`: snapshot the declared LBA
        windows so every later program-issued I/O can be replayed against
        the *installed* confinement, not the manager's live copy."""
        self._note("push")
        shadow = self._push_shadow(manager)
        windows = tuple(tuple(w) for w in program.windows)
        for start, count in windows:
            if start < 0 or count < 1 or start + count > ns_blocks:
                self._fail("push",
                           f"{key}: installed window escapes the namespace",
                           window=(start, count), ns_blocks=ns_blocks)
        shadow[key] = (windows, ns_blocks)

    def on_push_io(self, manager, key: str, lba: int, nblocks: int,
                   span=None) -> None:
        """Hook before every backend read/write a pushdown program issues
        (runs *before* the interpreter's own ``admits`` gate, so either
        enforcement point catches the removal of the other)."""
        self._note("push")
        shadow = self._push_shadow(manager).get(key)
        if shadow is None:
            self._fail("push",
                       f"{key}: program I/O without a recorded install",
                       span=span, lba=lba, nblocks=nblocks)
        windows, ns_blocks = shadow
        if lba < 0 or nblocks < 1 or lba + nblocks > ns_blocks:
            self._fail("push",
                       f"{key}: program I/O escapes the namespace",
                       span=span, lba=lba, nblocks=nblocks,
                       ns_blocks=ns_blocks)
        for start, count in windows:
            if start <= lba and lba + nblocks <= start + count:
                return
        self._fail("push",
                   f"{key}: program I/O outside its declared LBA windows",
                   span=span, lba=lba, nblocks=nblocks, windows=windows)

    # -------------------------------------------------------------- report
    def summary(self) -> dict[str, int]:
        """Coverage counts per enabled checker (JSON-able)."""
        return dict(self.counts)
