"""Target Controller: the BMS-Engine's command demultiplexer.

Per the paper's architecture (Fig. 3), the Target Controller receives
every fetched command and forwards *general I/O* to the mapping/QoS
pipeline while *admin (device management) commands* go to the
BMS-Controller on the ARM SoC.  A small set of latency-critical admin
commands (IDENTIFY, GET LOG PAGE) is answered by engine-local state,
mirroring hardware fast paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..nvme.command import SQE
from ..nvme.spec import AdminOpcode, StatusCode
from ..sim import SimulationError, Store
from .hooks import run_handler

if TYPE_CHECKING:  # pragma: no cover
    from .engine import BMSEngine
    from .sriov_layer import FrontEndFunction

__all__ = ["TargetController", "AdminRequest"]


class AdminRequest:
    """An admin command parked for the BMS-Controller."""

    __slots__ = ("fn", "qid", "sqe", "_engine", "completed")

    def __init__(self, engine: "BMSEngine", fn: "FrontEndFunction", qid: int, sqe: SQE):
        self._engine = engine
        self.fn = fn
        self.qid = qid
        self.sqe = sqe
        self.completed = False

    def respond(self, status: StatusCode = StatusCode.SUCCESS, result: int = 0) -> None:
        """Post the completion back through the front end."""
        if self.completed:
            return
        self.completed = True
        self._engine.post_front_cqe(self.fn, self.qid, self.sqe.cid, int(status), result)


class TargetController:
    """Admin/IO demux of the engine."""

    def __init__(self, engine: "BMSEngine"):
        self.engine = engine
        #: mailbox drained by the BMS-Controller service loop
        self.admin_mailbox: Store = Store(engine.sim, name="bms.adminmbx")
        self.io_commands = 0
        self.admin_commands = 0
        self.admin_forwarded = 0
        # per-(fn, qid) counter handles; building the labeled key on
        # every fetched command is measurable at millions of events
        self._c_io: dict = {}
        self._c_admin: dict = {}

    def dispatch(self, fn: "FrontEndFunction", qid: int, sqe: SQE):
        """Process generator: route one fetched command."""
        obs = self.engine.obs
        span = getattr(sqe, "span", None)
        if span is not None:
            span.stamp("fetch", self.engine.sim.now)
        faults = self.engine.faults
        if faults is not None:
            stall = faults.engine_stall_ns(span=span)
            if stall:
                yield self.engine.sim.timeout(stall)
        if qid != 0:
            self.io_commands += 1
            if obs is not None:
                c = self._c_io.get((fn.fn_id, qid))
                if c is None:
                    c = self._c_io[(fn.fn_id, qid)] = obs.counter(
                        "tc_io_cmds", fn=str(fn.fn_id), qid=str(qid))
                c.inc()
            yield from self.engine._handle_io(fn, qid, sqe)
            return
        self.admin_commands += 1
        if obs is not None:
            c = self._c_admin.get(fn.fn_id)
            if c is None:
                c = self._c_admin[fn.fn_id] = obs.counter(
                    "tc_admin_cmds", fn=str(fn.fn_id))
            c.inc()
        handled = yield from self._engine_local_admin(fn, qid, sqe)
        if handled:
            return
        # management command: hand it to the ARM-side BMS-Controller
        self.admin_forwarded += 1
        if obs is not None:
            obs.counter("tc_admin_forwarded", fn=str(fn.fn_id)).inc()
        self.admin_mailbox.post(AdminRequest(self.engine, fn, qid, sqe))

    def _engine_local_admin(self, fn: "FrontEndFunction", qid: int, sqe: SQE):
        opcode = sqe.opcode
        if opcode == int(AdminOpcode.IDENTIFY):
            ns = fn.namespaces.get(1)
            page = {
                "model": "BM-Store virtual NVMe",
                "function": fn.fn_id,
                "namespace_blocks": ns.num_blocks if ns else 0,
            }
            if sqe.prp1:
                yield self.engine.front_port.mem_write(sqe.prp1, 4096, None)
                self.engine.host_identify_pages[sqe.prp1] = page
            self.engine.post_front_cqe(fn, qid, sqe.cid, int(StatusCode.SUCCESS), 0)
            return True
        if opcode == int(AdminOpcode.GET_LOG_PAGE):
            stats = self.engine.monitor_snapshot(fn.fn_id)
            # vendor log-page fields describe the tenant's own namespace
            for name, fill in self.engine.hooks.opcodes["log"].items():
                value = fill(fn.ns_key)
                if value is not None:
                    stats[name] = value
            if sqe.prp1:
                yield self.engine.front_port.mem_write(sqe.prp1, 512, None)
                self.engine.host_identify_pages[sqe.prp1] = stats
            self.engine.post_front_cqe(fn, qid, sqe.cid, int(StatusCode.SUCCESS), 0)
            return True
        if opcode in (
            int(AdminOpcode.CREATE_IO_SQ),
            int(AdminOpcode.CREATE_IO_CQ),
            int(AdminOpcode.DELETE_IO_SQ),
            int(AdminOpcode.DELETE_IO_CQ),
            int(AdminOpcode.SET_FEATURES),
            int(AdminOpcode.GET_FEATURES),
            int(AdminOpcode.ABORT),
        ):
            yield self.engine.sim.timeout(self.engine.timings.pipeline_ns)
            self.engine.post_front_cqe(fn, qid, sqe.cid, int(StatusCode.SUCCESS), 0)
            return True
        handler = self.engine.hooks.opcodes["admin"].get(opcode)
        if handler is None:
            return False
        # a vendor admin command: namespace-scoped, at pipeline cost.  It
        # shares its NVMe-MI twin's handler; a rejected request completes
        # INVALID_FIELD, a reply body lands at the command's data pointer
        yield self.engine.sim.timeout(self.engine.timings.pipeline_ns)
        status, body = StatusCode.INVALID_NAMESPACE, None
        if fn.ns_key is not None:
            try:
                status, body = yield from run_handler(
                    handler, {"key": fn.ns_key, "program": sqe.payload})
            except SimulationError as exc:
                from ..checks.runtime import InvariantViolation

                if isinstance(exc, InvariantViolation):
                    raise
                status = StatusCode.INVALID_FIELD
        if body is not None and sqe.prp1:
            yield self.engine.front_port.mem_write(sqe.prp1, 512, None)
            self.engine.host_identify_pages[sqe.prp1] = body
        self.engine.post_front_cqe(fn, qid, sqe.cid, int(status), 0)
        return True
