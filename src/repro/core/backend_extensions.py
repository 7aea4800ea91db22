"""Extended back-end types: SATA devices and remote storage.

Paper §VI-A: "to support SATA HDD ... add the logic of the SATA
controller to the Host Adaptor"; §VI-D: "we plan to add remote storage
support".  Both are additional back-end slot types behind the same
engine datapath: commands arrive LBA-remapped with global PRPs, data
still moves zero-copy between the device side and host memory through
the engine's DMA router, and the pause/drain machinery that hot
maintenance relies on works unchanged.

Neither device type speaks NVMe admin, so firmware hot-upgrade is
reported unsupported on these slots (the NVMe drives keep it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..nvme.command import SQE
from ..nvme.prp import page_spans, prp_list_bytes, walk_prps
from ..nvme.spec import IOOpcode, LBA_BYTES, StatusCode
from ..remote.network import NetworkLink
from ..remote.target import RemoteStorageTarget
from ..sata.disk import SATADisk
from ..sim import SimulationError
from .host_adaptor import ForwardRequest, SlotBase

if TYPE_CHECKING:  # pragma: no cover
    from .host_adaptor import HostAdaptor

__all__ = ["ExtendedBackendSlot", "SATABackendSlot", "RemoteBackendSlot"]

SQE_WIRE_BYTES = 64
RESPONSE_WIRE_BYTES = 16


class ExtendedBackendSlot(SlotBase):
    """Base slot for non-NVMe devices: PRP resolution, device-agnostic."""

    supports_firmware_upgrade = False

    def __init__(self, adaptor: "HostAdaptor", index: int, capacity_bytes: int,
                 name: str):
        super().__init__(adaptor, index, name)
        self.capacity_bytes = capacity_bytes
        self._fwd_name = f"{name}.fwd"
        self._replay_name = f"{name}.replay"
        self.ssd = None  # no NVMe drive behind this slot
        self._next_tag = 0

    # ------------------------------------------------------------ forwarding
    def _run(self, req: ForwardRequest):
        if self.paused:
            self.pause_buffer.append(req)
            return
        self._next_tag = (self._next_tag + 1) % 0xFFFF
        tag = self._next_tag
        self.pending[tag] = req
        self.inflight += 1
        self.forwarded += 1
        try:
            status = yield from self._issue(req.sqe)
        finally:
            self.pending.pop(tag, None)
            self.inflight -= 1
            self.completed += 1
            self._settle_drain()
        req.on_complete(status)

    _submit = _run

    def _issue(self, sqe: SQE):
        raise NotImplementedError  # pragma: no cover

    def _ring_indices(self) -> tuple[int, int, int]:
        return 0, self.forwarded, self.completed

    def forward_admin(self, sqe: SQE, on_complete: Callable[[int], None]) -> None:
        """Non-NVMe back ends have no admin queue."""
        on_complete(int(StatusCode.INVALID_OPCODE))

    def detach_ssd(self):
        raise SimulationError(
            f"{self.name}: hot-plug replacement is defined for NVMe slots"
        )

    def attach_ssd(self, ssd) -> None:
        raise SimulationError(
            f"{self.name}: hot-plug replacement is defined for NVMe slots"
        )

    # ------------------------------------------------------------ data moves
    def _resolve_pages(self, sqe: SQE, length: int) -> Sequence[int]:
        """Global-PRP pages of the command (the list lives in the
        engine's PRP pool: chip memory, or the CXL tier once spilled)."""
        prp_list = None
        if prp_list_bytes(sqe.prp1, length):
            pool = self.adaptor.engine._prp_pool
            prp_list = pool.memory_for(sqe.prp2).load_obj(sqe.prp2)
        return walk_prps(sqe.prp1, sqe.prp2, length, prp_list)

    def _dma_to_host(self, sqe: SQE, length: int, payload: Optional[bytes]):
        """Device data -> host memory through the engine's DMA router."""
        engine = self.adaptor.engine
        pages = self._resolve_pages(sqe, length)
        if payload is None:
            yield engine.route_dma_write_event(pages[0], length, None)
            return
        for page, offset, chunk in page_spans(pages, length):
            yield engine.route_dma_write_event(page, chunk, payload[offset : offset + chunk])

    def _dma_from_host(self, sqe: SQE, length: int):
        """Host memory -> device through the engine's DMA router."""
        engine = self.adaptor.engine
        pages = self._resolve_pages(sqe, length)
        data = yield engine._route_dma_read(pages[0], length)
        return data if isinstance(data, (bytes, bytearray)) else None


class SATABackendSlot(ExtendedBackendSlot):
    """The Host Adaptor's SATA controller + one SATA device."""

    #: the adaptor's SATA protocol-translation stage
    TRANSLATE_NS = 700

    def __init__(self, adaptor: "HostAdaptor", index: int, disk: SATADisk):
        super().__init__(adaptor, index, disk.profile.capacity_bytes,
                         name=f"sata-slot{index}")
        self.disk = disk

    def _issue(self, sqe: SQE):
        yield self.sim.timeout(self.TRANSLATE_NS)
        opcode = sqe.opcode
        if opcode == int(IOOpcode.FLUSH):
            result = yield self.disk.submit("flush", 0, 0)
            return int(StatusCode.SUCCESS if result.ok else StatusCode.INTERNAL_ERROR)
        nblocks = sqe.num_blocks
        length = nblocks * LBA_BYTES
        if opcode == int(IOOpcode.WRITE):
            payload = sqe.payload
            host_data = yield from self._dma_from_host(sqe, length)
            if payload is None:
                payload = host_data
            result = yield self.disk.submit("write", sqe.slba, nblocks, payload)
            return int(StatusCode.SUCCESS if result.ok else StatusCode.LBA_OUT_OF_RANGE)
        if opcode == int(IOOpcode.READ):
            result = yield self.disk.submit("read", sqe.slba, nblocks, want_data=False)
            if not result.ok:
                return int(StatusCode.LBA_OUT_OF_RANGE)
            yield from self._dma_to_host(sqe, length, result.data)
            return int(StatusCode.SUCCESS)
        return int(StatusCode.INVALID_OPCODE)


class RemoteBackendSlot(ExtendedBackendSlot):
    """NVMe-oF-style remote volume behind the card (§VI-D)."""

    def __init__(
        self,
        adaptor: "HostAdaptor",
        index: int,
        target: RemoteStorageTarget,
        link: NetworkLink,
    ):
        super().__init__(adaptor, index, target.capacity_bytes,
                         name=f"remote-slot{index}")
        self.target = target
        self.link = link

    def _issue(self, sqe: SQE):
        opcode = sqe.opcode
        if opcode == int(IOOpcode.FLUSH):
            yield self.link.send(SQE_WIRE_BYTES)
            result = yield self.target.execute("flush", 0, 0)
            yield self.link.respond(RESPONSE_WIRE_BYTES)
            return int(StatusCode.SUCCESS if result.ok else StatusCode.INTERNAL_ERROR)
        nblocks = sqe.num_blocks
        length = nblocks * LBA_BYTES
        if opcode == int(IOOpcode.WRITE):
            payload = sqe.payload
            host_data = yield from self._dma_from_host(sqe, length)
            if payload is None:
                payload = host_data
            # command capsule carries the data inline (in-capsule write)
            yield self.link.send(SQE_WIRE_BYTES + length)
            result = yield self.target.execute("write", sqe.slba, nblocks, payload)
            yield self.link.respond(RESPONSE_WIRE_BYTES)
            return int(StatusCode.SUCCESS if result.ok else StatusCode.LBA_OUT_OF_RANGE)
        if opcode == int(IOOpcode.READ):
            yield self.link.send(SQE_WIRE_BYTES)
            result = yield self.target.execute("read", sqe.slba, nblocks)
            if not result.ok:
                yield self.link.respond(RESPONSE_WIRE_BYTES)
                return int(StatusCode.LBA_OUT_OF_RANGE)
            yield self.link.respond(RESPONSE_WIRE_BYTES + length)
            yield from self._dma_to_host(sqe, length, result.data)
            return int(StatusCode.SUCCESS)
        return int(StatusCode.INVALID_OPCODE)
