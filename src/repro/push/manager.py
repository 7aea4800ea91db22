"""Engine-side pushdown manager: install table + interpreter.

One :class:`PushManager` per :class:`~repro.core.engine.BMSEngine`,
armed lazily (``engine.push_manager()``, or the first program install)
like the CoW volume layer; it attaches through the engine hooks listed
in ``core/hooks.py``, and a namespace's program dies with it.

The interpreter runs inside the engine's command path: a ``PUSH_EXEC``
vendor I/O command names an invocation object parked at its PRP page;
the interpreter fetches it, runs the namespace's installed program,
issues the backend I/O itself (each hop window-checked, QoS-admitted,
then mapped and forwarded by the same engine steps as host I/O), and
parks a result object back at the same page.

Sandboxing is enforced twice: the runtime re-checks every invocation
LBA against the installed program's windows (``PUSH_SANDBOX_FAULT`` on
escape), and the ``push`` invariant checker — a pure observer —
independently shadows every program-issued backend I/O against the
declared confinement *and* the namespace bounds, so deleting either
enforcement point is caught by the other.

Data semantics follow the repo's two-mode byte model: ``carry``
invocations parse real block bytes DMA'd into engine chip memory
(early-exiting a chase at the first block containing the key); shadow
invocations carry host-precomputed pointers/hit flags so the backend
command sequence is identical while no bytes flow.  Blocks use MiniKV's
record framing (``apps/minikv/encoding``), read with its decoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..apps.minikv.encoding import decode_records, find_record, lookup_index_block
from ..mgmt.nvme_mi import MIOpcode, MIStatus
from ..nvme.spec import LBA_BYTES, AdminOpcode, IOOpcode, StatusCode
from ..sim import SimulationError
from ..sim.units import PAGE_SIZE
from .program import PushCosts, PushProgram, validate_program

__all__ = ["PushManager", "PushResult", "InstalledProgram"]

#: modeled size of the result record DMA'd back into the invocation page
RESULT_BYTES = 512

@dataclass
class PushResult:
    """What an invocation hands back to the host (parked object)."""

    found: bool = False
    candidate: Optional[int] = None
    block_idx: Optional[int] = None
    hops: int = 0
    #: raw data-block bytes of the hit (carry mode only)
    block: Optional[bytes] = None
    #: filter outputs
    count: int = 0
    records: Optional[list] = None
    #: cond_write outcome
    committed: bool = False
    stored_seq: Optional[int] = None


@dataclass
class InstalledProgram:
    """One namespace's installed program + its execution statistics."""

    key: str
    program: PushProgram
    execs: int = 0
    backend_reads: int = 0
    backend_writes: int = 0
    hops_saved: int = 0
    sandbox_faults: int = 0
    exec_ns: int = 0

    def stat(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "kind": self.program.kind,
            "max_hops": self.program.max_hops,
            "max_fanout": self.program.max_fanout,
            "windows": [list(w) for w in self.program.windows],
            "execs": self.execs,
            "backend_reads": self.backend_reads,
            "backend_writes": self.backend_writes,
            "hops_saved": self.hops_saved,
            "sandbox_faults": self.sandbox_faults,
            "exec_ns": self.exec_ns,
        }


class _SandboxEscape(Exception):
    """Internal: an invocation LBA left the program's windows."""

    def __init__(self, lba: int, nblocks: int):
        super().__init__(f"push sandbox escape at lba {lba} (+{nblocks})")
        self.lba = lba
        self.nblocks = nblocks


class PushManager:
    """Install/uninstall/stat + the in-engine interpreter."""

    def __init__(self, engine, costs: PushCosts = PushCosts()):
        self.engine = engine
        self.obs = engine.obs
        self.costs = costs
        self.programs: dict[str, InstalledProgram] = {}
        self.programs_installed = 0
        #: counter handles, looked up once, on first use: a snapshot
        #: lists a counter only once something has counted
        self._c_exec_ns = self._c_hops_saved = None
        #: the world's CheckContext (push checker); None = dormant, zero-cost
        self.checks = engine.sim.checker("push")
        hooks = engine.hooks
        hooks.ns_teardown.append(
            lambda ens, _freeable: self.programs.pop(ens.key, None))
        hooks.opcodes["io"][IOOpcode.PUSH_EXEC] = self.execute
        # in-band vendor admin and NVMe-MI share one handler per operation
        for admin_op, mi_op, handler in (
            (AdminOpcode.PUSH_INSTALL, MIOpcode.PUSH_INSTALL,
             lambda p: (MIStatus.SUCCESS, self.install(p["key"], p["program"]))),
            (AdminOpcode.PUSH_UNINSTALL, MIOpcode.PUSH_UNINSTALL,
             lambda p: (MIStatus.SUCCESS, self.uninstall(p["key"]))),
            (AdminOpcode.PUSH_STAT, MIOpcode.PUSH_STAT, self._stat_op),
        ):
            hooks.opcodes["admin"][admin_op] = hooks.opcodes["mi"][mi_op] = handler

    # ------------------------------------------------------------- install
    def install(self, key: str, program: dict, validate: bool = True) -> dict:
        """Validate + install ``program`` on namespace ``key``.

        ``validate=False`` is a test hook that skips the static
        validator so the runtime sandbox and the push checker can be
        exercised against intentionally out-of-range programs.
        """
        ens = self.engine.namespaces.get(key)
        if ens is None:
            raise SimulationError(f"no namespace {key} to install a program on")
        if validate:
            validated = validate_program(program, ens.namespace.num_blocks)
        else:
            validated = PushProgram(
                kind=program["kind"], max_hops=program["max_hops"],
                max_fanout=program["max_fanout"],
                windows=tuple(tuple(w) for w in program["windows"]),
            )
        entry = InstalledProgram(key=key, program=validated)
        self.programs[key] = entry
        self.programs_installed += 1
        self.obs.counter("push_programs_installed").inc()
        if self.checks is not None:
            self.checks.on_push_install(self, key, validated,
                                        ens.namespace.num_blocks)
        return entry.stat()

    def uninstall(self, key: str) -> dict:
        entry = self.programs.pop(key, None)
        if entry is None:
            raise SimulationError(f"no push program installed on {key}")
        return entry.stat()

    def stat(self, key: str) -> dict:
        entry = self.programs.get(key)
        if entry is None:
            raise SimulationError(f"no push program installed on {key}")
        return entry.stat()

    def stat_all(self) -> list[dict]:
        return [self.programs[key].stat() for key in sorted(self.programs)]

    def _stat_op(self, p: dict):
        if p.get("key") is not None:
            return MIStatus.SUCCESS, self.stat(p["key"])
        return MIStatus.SUCCESS, {"programs": self.stat_all()}

    # --------------------------------------------------------- interpreter
    def execute(self, fn, qid: int, sqe, ens):
        """Generator: run one PUSH_EXEC command end to end; returns the
        completion status the engine posts."""
        engine = self.engine
        sim = engine.sim
        span = sqe.span
        t_start = sim.now

        # the vendor command flows through the same pipeline stages as
        # any other I/O before the interpreter takes over
        yield engine.pipeline_stage()

        entry = self.programs.get(ens.key)
        if entry is None:
            return StatusCode.INVALID_FIELD
        invocation = yield engine.front_port.mem_read(sqe.prp1, PAGE_SIZE)
        if not isinstance(invocation, dict):
            return StatusCode.INVALID_FIELD
        yield sim.timeout(self.costs.dispatch_ns)

        kind = entry.program.kind
        result = PushResult()
        try:
            if kind == "chase":
                status = yield from self._run_chase(fn, ens, entry,
                                                    invocation, result, span)
            elif kind == "filter":
                status = yield from self._run_filter(fn, ens, entry,
                                                     invocation, result, span)
            else:
                status = yield from self._run_cond_write(fn, ens, entry,
                                                         invocation, result,
                                                         span)
        except _SandboxEscape:
            entry.sandbox_faults += 1
            self.obs.counter("push_sandbox_faults", ns=ens.key).inc()
            status = int(StatusCode.PUSH_SANDBOX_FAULT)

        if span is not None:
            span.stamp("backend_done", sim.now)
        # DMA the result record back into the invocation page
        yield engine.front_port.mem_write(sqe.prp1, RESULT_BYTES, None)
        engine.host.memory.store_obj(sqe.prp1, result)
        if span is not None:
            span.stamp("push_exec", sim.now)

        entry.execs += 1
        elapsed = sim.now - t_start
        entry.exec_ns += elapsed
        saved = max(0, result.hops - 1)
        entry.hops_saved += saved
        if saved:
            if self._c_hops_saved is None:
                self._c_hops_saved = self.obs.counter("push_hops_saved")
            self._c_hops_saved.inc(saved)
        if self._c_exec_ns is None:
            self._c_exec_ns = self.obs.counter("push_exec_ns")
        self._c_exec_ns.inc(elapsed)
        return status

    # ------------------------------------------------------- backend hops
    def _backend_io(self, fn, ens, entry, opcode: int, lba: int,
                    nblocks: int, payload, span):
        """One program-issued backend command; returns (status, data).

        The checker observes the access *before* the runtime window
        gate so an out-of-range program is caught even if the inline
        enforcement is ever reverted (and vice versa).  Past the gate a
        hop is ordinary tenant I/O: QoS-admitted, then mapped and
        forwarded by the engine's own steps ②–③ (so CoW faults and
        dirty-chunk tracking apply) into a pooled chip buffer.
        """
        engine = self.engine
        if self.checks is not None:
            self.checks.on_push_io(self, ens.key, lba, nblocks, span=span)
        if not entry.program.admits(lba, nblocks):
            raise _SandboxEscape(lba, nblocks)
        gate = engine.qos.admit(fn.ns_key, nblocks * LBA_BYTES, span=span)
        if gate is not None:
            yield gate
        yield engine.sim.timeout(self.costs.hop_ns)
        extents = yield from engine.map_io(ens, opcode, lba, nblocks, span)
        if extents is None:
            return int(StatusCode.LBA_OUT_OF_RANGE), None

        length = nblocks * LBA_BYTES
        pool = engine._prp_pool
        buf = pool.get(length)
        done = engine.sim.event(name="push.hop")
        engine.forward_io(opcode, extents,
                          range(buf, buf + nblocks * PAGE_SIZE, PAGE_SIZE),
                          payload, span, done.succeed)
        status = yield done
        data = None
        if status == int(StatusCode.SUCCESS) and opcode == int(IOOpcode.READ):
            data = pool.memory_for(buf).mem_read(buf, length)
        pool.put(buf, length)
        if opcode == int(IOOpcode.READ):
            entry.backend_reads += 1
        else:
            entry.backend_writes += 1
        return status, data

    # ---------------------------------------------------------------- ops
    def _run_chase(self, fn, ens, entry, inv, result: PushResult, span):
        """read -> compare -> resubmit pointer chase over candidates."""
        program = entry.program
        carry = bool(inv.get("carry"))
        key = inv.get("key")
        candidates = inv.get("candidates") or []
        sim = self.engine.sim
        for idx, cand in enumerate(candidates):
            if result.hops + 2 > program.max_hops:
                break  # bounded: never start a candidate we cannot finish
            status, raw = yield from self._backend_io(
                fn, ens, entry, int(IOOpcode.READ),
                int(cand["index_lba"]), 1, None, span)
            result.hops += 1
            if status != int(StatusCode.SUCCESS):
                return status
            if carry:
                yield sim.timeout(self.costs.scan_ns)
                block_idx = lookup_index_block(raw or b"", key)
            else:
                block_idx = cand.get("shadow_ptr")
            if block_idx is None:
                continue  # key precedes this table's range: no data hop
            status, raw = yield from self._backend_io(
                fn, ens, entry, int(IOOpcode.READ),
                int(cand["data_base"]) + block_idx, 1, None, span)
            result.hops += 1
            if status != int(StatusCode.SUCCESS):
                return status
            if carry:
                yield sim.timeout(self.costs.scan_ns)
                hit = key is not None and find_record(raw or b"", key) is not None
                if hit:
                    result.block = raw
            else:
                hit = bool(cand.get("hit"))
            if hit:
                result.found = True
                result.candidate = idx
                result.block_idx = block_idx
                break
        return int(StatusCode.SUCCESS)

    def _run_filter(self, fn, ens, entry, inv, result: PushResult, span):
        """Filter/aggregate-on-read over one bounded contiguous range."""
        program = entry.program
        carry = bool(inv.get("carry"))
        base_lba = int(inv.get("base_lba", 0))
        nblocks = int(inv.get("nblocks", 1))
        if not 1 <= nblocks <= program.max_fanout:
            return int(StatusCode.INVALID_FIELD)
        status, raw = yield from self._backend_io(
            fn, ens, entry, int(IOOpcode.READ), base_lba, nblocks, None, span)
        result.hops += 1
        if status != int(StatusCode.SUCCESS):
            return status
        if carry:
            yield self.engine.sim.timeout(self.costs.scan_ns * nblocks)
            lo, hi = inv.get("lo"), inv.get("hi")
            matches = [
                (rk, value, seq)
                for rk, value, seq in decode_records(raw or b"")
                if (lo is None or rk >= lo) and (hi is None or rk <= hi)
            ]
            result.count = len(matches)
            if inv.get("mode", "collect") == "collect":
                result.records = matches
        return int(StatusCode.SUCCESS)

    def _run_cond_write(self, fn, ens, entry, inv, result: PushResult, span):
        """Key-versioned conditional write: read, compare seq, commit."""
        carry = bool(inv.get("carry"))
        lba = int(inv.get("lba", 0))
        expected = inv.get("expected_seq")
        status, raw = yield from self._backend_io(
            fn, ens, entry, int(IOOpcode.READ), lba, 1, None, span)
        result.hops += 1
        if status != int(StatusCode.SUCCESS):
            return status
        if carry:
            first = next(decode_records(raw or b""), None)
            stored = first[2] if first else None
        else:
            stored = inv.get("current_seq")
        result.stored_seq = stored
        if stored != expected:
            return int(StatusCode.SUCCESS)  # lost the race: not committed
        yield self.engine.sim.timeout(self.costs.write_ns)
        payload = inv.get("payload") if carry else None
        status, _ = yield from self._backend_io(
            fn, ens, entry, int(IOOpcode.WRITE), lba, 1, payload, span)
        result.hops += 1
        if status != int(StatusCode.SUCCESS):
            return status
        result.committed = True
        return int(StatusCode.SUCCESS)
