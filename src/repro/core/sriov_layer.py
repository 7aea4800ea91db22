"""Standard SR-IOV layer of the BMS-Engine.

The engine exposes 4 PFs and 124 VFs to the host — 128 independent
standard-NVMe controllers in total — so the unmodified host NVMe driver
binds them exactly like physical drives (the transparency property).

Each :class:`FrontEndFunction` implements the driver-facing
``NVMeControllerTarget`` protocol: queue-pair attach, doorbell
addresses inside the engine's BAR, MSI-X via its PCIe function, and the
namespace bound to it by the BMS-Controller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..nvme.namespace import Namespace
from ..nvme.queues import CompletionQueue, QueuePair, SubmissionQueue
from ..nvme.spec import DOORBELL_STRIDE
from ..pcie.config_space import ConfigSpace, SRIOVCapability
from ..pcie.function import PCIeFunction
from ..sim import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import BMSEngine

__all__ = ["FrontEndFunction", "SRIOVLayer", "NUM_PFS", "NUM_VFS", "FN_BAR_BYTES"]

NUM_PFS = 4
NUM_VFS = 124
#: per-function slice of the engine BAR (doorbell page region)
FN_BAR_BYTES = 0x4000
DOORBELL_REGION_OFFSET = 0x1000


class FrontEndFunction:
    """One front-end NVMe controller (a PF or VF of the engine)."""

    def __init__(self, engine: "BMSEngine", fn_id: int, pcie_fn: PCIeFunction):
        self.engine = engine
        self.fn_id = fn_id  # 1-based: 0 is reserved by the global-PRP format
        self.function = pcie_fn
        self.namespaces: dict[int, Namespace] = {}
        self.queue_pairs: dict[int, QueuePair] = {}
        self.ns_key: Optional[str] = None  # engine namespace bound here
        #: PassthroughBinding when this function's I/O queues are mapped
        #: straight onto a back-end SSD; None = fully interposed
        self.passthrough = None

    @property
    def is_vf(self) -> bool:
        return self.function.is_vf

    @property
    def bar_base(self) -> int:
        return self.engine.front_bar_base + (self.fn_id - 1) * FN_BAR_BYTES

    def doorbell_addr(self, qid: int, is_cq: bool = False) -> int:
        return (
            self.bar_base
            + DOORBELL_REGION_OFFSET
            + (2 * qid + (1 if is_cq else 0)) * DOORBELL_STRIDE
        )

    def attach_queue_pair(
        self, qid: int, sq: SubmissionQueue, cq: CompletionQueue
    ) -> QueuePair:
        qp = QueuePair(
            sq=sq,
            cq=cq,
            sq_doorbell=self.doorbell_addr(qid, is_cq=False),
            cq_doorbell=self.doorbell_addr(qid, is_cq=True),
        )
        self.queue_pairs[qid] = qp
        if self.passthrough is not None:
            # share the very same rings with the backing SSD
            self.passthrough.map_queue(qid, qp)
        return qp

    def detach_queue_pair(self, qid: int) -> None:
        if self.passthrough is not None:
            self.passthrough.unmap_queue(qid)
        self.queue_pairs.pop(qid, None)

    def unbind(self) -> None:
        """Drop the bound namespace, leaving passthrough mode first."""
        if self.passthrough is not None:
            self.passthrough.disable()
        self.namespaces.pop(1, None)
        self.ns_key = None

    def __repr__(self) -> str:  # pragma: no cover
        kind = "VF" if self.is_vf else "PF"
        return f"<FrontEnd{kind} fn={self.fn_id} ns={self.ns_key}>"


class _FrontBarRegion:
    """The engine's front BAR: doorbell writes demux to (function, qid)."""

    def __init__(self, layer: "SRIOVLayer", access_ns: int = 20):
        self.layer = layer
        self._access_ns = access_ns
        self._c_doorbells: dict = {}  # (fn, slot) -> counter handle

    @property
    def access_ns(self) -> int:
        return self._access_ns

    def mem_write(self, addr: int, length: int, data) -> None:
        offset = addr - self.layer.engine.front_bar_base
        fn_index, fn_off = divmod(offset, FN_BAR_BYTES)
        db_off = fn_off - DOORBELL_REGION_OFFSET
        if db_off < 0:
            return  # controller-register writes (admin config) — no doorbell
        slot, kind = divmod(db_off // DOORBELL_STRIDE, 2)
        if kind == 0:
            obs = self.layer.engine.obs
            if obs is not None:
                c = self._c_doorbells.get((fn_index, slot))
                if c is None:
                    c = self._c_doorbells[(fn_index, slot)] = obs.counter(
                        "sriov_doorbells", fn=str(fn_index + 1), qid=str(slot)
                    )
                c.inc()
            self.layer.engine.on_front_doorbell(fn_index + 1, slot)

    def mem_read(self, addr: int, length: int):
        return None


class SRIOVLayer:
    """Creates and indexes the engine's PFs and VFs."""

    def __init__(self, engine: "BMSEngine"):
        self.engine = engine
        self.functions: dict[int, FrontEndFunction] = {}
        self._bar = _FrontBarRegion(self)
        engine.front_port.map_window(
            engine.front_bar_base, (NUM_PFS + NUM_VFS) * FN_BAR_BYTES, self._bar
        )
        fn_id = 1
        for pf_index in range(NUM_PFS):
            config = ConfigSpace(
                vendor_id=0x1DED,  # a cloud-vendor id
                device_id=0xB057,
                sriov=SRIOVCapability(total_vfs=NUM_VFS // NUM_PFS),
                bar_sizes={0: FN_BAR_BYTES},
            )
            config.enable()
            pf = PCIeFunction(fn_id, config, name=f"bms.pf{pf_index}")
            self.functions[fn_id] = FrontEndFunction(engine, fn_id, pf)
            fn_id += 1
        for pf_index in range(NUM_PFS):
            pf_fn = self.functions[pf_index + 1].function
            for vf_index in range(NUM_VFS // NUM_PFS):
                config = ConfigSpace(
                    vendor_id=0x1DED, device_id=0xB057, bar_sizes={0: FN_BAR_BYTES}
                )
                config.enable()
                vf = PCIeFunction(
                    fn_id, config, name=f"bms.pf{pf_index}.vf{vf_index}",
                    is_vf=True, parent_pf=pf_fn,
                )
                self.functions[fn_id] = FrontEndFunction(engine, fn_id, vf)
                fn_id += 1

    def function_by_id(self, fn_id: int) -> FrontEndFunction:
        fn = self.functions.get(fn_id)
        if fn is None:
            raise SimulationError(f"no front-end function {fn_id}")
        return fn

    @property
    def physical_functions(self) -> list[FrontEndFunction]:
        return [fn for fn in self.functions.values() if not fn.is_vf]

    @property
    def virtual_functions(self) -> list[FrontEndFunction]:
        return [fn for fn in self.functions.values() if fn.is_vf]
