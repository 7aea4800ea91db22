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
from ..sim import Store

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
            volumes = self.engine.volumes
            if volumes is not None and fn.ns_key is not None:
                # tenants see their own volume's CoW statistics in the
                # vendor log page (the host never learns fleet topology)
                if fn.ns_key in volumes.volumes:
                    stats["volume"] = volumes.volume_stat(fn.ns_key)
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
        if opcode in (
            int(AdminOpcode.PUSH_INSTALL),
            int(AdminOpcode.PUSH_UNINSTALL),
            int(AdminOpcode.PUSH_STAT),
        ):
            yield self.engine.sim.timeout(self.engine.timings.pipeline_ns)
            yield from self._push_admin(fn, qid, sqe)
            return True
        return False

    def _push_admin(self, fn: "FrontEndFunction", qid: int, sqe: SQE):
        """In-band pushdown program management (vendor admin opcodes)."""
        from ..push import PushValidationError

        engine = self.engine
        if fn.ns_key is None:
            engine.post_front_cqe(fn, qid, sqe.cid,
                                  int(StatusCode.INVALID_NAMESPACE), 0)
            return
        opcode = sqe.opcode
        status = StatusCode.SUCCESS
        if opcode == int(AdminOpcode.PUSH_INSTALL):
            try:
                engine.push_manager().install(fn.ns_key, sqe.payload)
            except PushValidationError:
                status = StatusCode.INVALID_FIELD
        elif opcode == int(AdminOpcode.PUSH_UNINSTALL):
            push = engine.push
            if push is None or push.program_for(fn.ns_key) is None:
                status = StatusCode.INVALID_FIELD
            else:
                push.uninstall(fn.ns_key)
        else:  # PUSH_STAT
            push = engine.push
            entry = push.program_for(fn.ns_key) if push is not None else None
            if entry is None:
                status = StatusCode.INVALID_FIELD
            elif sqe.prp1:
                yield engine.front_port.mem_write(sqe.prp1, 512, None)
                engine.host_identify_pages[sqe.prp1] = entry.stat()
        engine.post_front_cqe(fn, qid, sqe.cid, int(status), 0)
