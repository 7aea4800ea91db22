"""The one seam optional engine features attach through.

The engine's datapath is the fixed seven steps of paper Fig. 6.  Each
optional feature registers its hooks and vendor opcodes here when it is
armed, and the engine and both controllers run what is registered
without naming the feature.  DESIGN.md ("How an optional feature
attaches") tabulates which feature registers what, at which step.
"""

from __future__ import annotations

from types import GeneratorType

from ..mgmt.nvme_mi import MIOpcode, MIStatus
from ..nvme.spec import AdminOpcode, IOOpcode, StatusCode

__all__ = ["EngineHooks", "run_handler", "CORE_OPCODES"]

#: a dormant engine's vendor opcodes: the engine armer to run on first
#: use (the armed feature then registers the real handler), or a reply
CORE_OPCODES = {
    ("io", IOOpcode.PUSH_EXEC): StatusCode.INVALID_OPCODE,
    ("admin", AdminOpcode.PUSH_INSTALL): "push_manager",
    ("admin", AdminOpcode.PUSH_UNINSTALL): (StatusCode.INVALID_FIELD, None),
    ("admin", AdminOpcode.PUSH_STAT): (StatusCode.INVALID_FIELD, None),
    ("mi", MIOpcode.CREATE_SNAPSHOT): "volume_manager",
    ("mi", MIOpcode.CLONE_VOLUME): "volume_manager",
    ("mi", MIOpcode.VOLUME_STAT): "volume_manager",
    ("mi", MIOpcode.PUSH_INSTALL): "push_manager",
    ("mi", MIOpcode.PUSH_UNINSTALL): "push_manager",
    ("mi", MIOpcode.PUSH_STAT): "push_manager",
    ("mi", MIOpcode.CXL_ENABLE): "cxl_tier",
    ("mi", MIOpcode.CXL_STAT): (MIStatus.UNSUPPORTED,
                                {"error": "CXL buffer tier is dormant"}),
}


def run_handler(handler, *args):
    """Generator: run an opcode handler inside the dispatching process;
    a handler that waits on simulated time is a generator."""
    reply = handler(*args)
    if isinstance(reply, GeneratorType):
        reply = yield from reply
    return reply


class EngineHooks:
    """One engine's hook lists and vendor-opcode table.

    Hooks are plain calls, run in registration order.  A dormant
    engine's lists are empty, so each hook point costs one check.
    """

    def __init__(self, engine):
        #: ``hook(ens, slba, nblocks, span)``; a returned generator (the
        #: CoW copy) runs before translation continues
        self.write: list = []
        self.ns_create: list = []  # hook(ens)
        #: ``hook(ens, freeable)``: may narrow the chunks the delete frees
        self.ns_teardown: list = []
        #: ``(before, after)``: ``before(ssd_id)`` (or None) while the
        #: drive is seated, ``after(ssd_id, removed)`` once the slot
        #: has failed its commands and emptied
        self.slot_removal: list = []
        self.slot_attach: list = []  # hook(ssd_id, ssd)
        #: plane -> {opcode: handler}.  ``io``: ``(fn, qid, sqe, ens) ->
        #: status``; ``admin`` and ``mi``: ``(params) -> (status, body)``,
        #: an admin command's params being its namespace key and payload;
        #: ``log``: a vendor log-page field -> ``fill(ns_key)``
        self.opcodes: dict[str, dict] = {"io": {}, "admin": {}, "mi": {}, "log": {}}
        for (plane, op), core in CORE_OPCODES.items():
            self.opcodes[plane][op] = (
                self._arming(engine, plane, op, core) if isinstance(core, str)
                else lambda *_args, _reply=core: _reply)

    def _arming(self, engine, plane: str, op: int, armer: str):
        def arm(*args):
            getattr(engine, armer)()  # the armed feature replaces this entry
            return self.opcodes[plane][op](*args)

        return arm
