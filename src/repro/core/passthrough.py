"""I/O-queue passthrough: a function's I/O rings mapped onto one drive.

The engine stops interposing on the function's data path: front
doorbells are relayed to the drive, which fetches guest SQEs and posts
CQEs into the guest rings itself through a shared
:class:`DMATranslation`.  Only the admin queue (qid 0) stays on the
mediated Target-Controller path.  A binding lives on the function it
maps (``FrontEndFunction.passthrough``) and nowhere else; the drive's
removal and re-attach reach it through the engine's slot hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..sim import SimulationError
from .dma_routing import DMATranslation

if TYPE_CHECKING:  # pragma: no cover
    from .engine import BMSEngine
    from .sriov_layer import FrontEndFunction

__all__ = ["Passthrough", "PassthroughBinding", "PASSTHROUGH_QID_BASE"]

#: device-side qids for passthrough-mapped host queues sit above the
#: adaptor's own queues (BACKEND_QID=1) so the two never collide
PASSTHROUGH_QID_BASE = 16


@dataclass
class PassthroughBinding:
    """One function's I/O queues mapped straight onto a back-end SSD."""

    engine: BMSEngine
    fn: FrontEndFunction
    ssd_id: int
    translation: DMATranslation
    #: host qid -> device-side qid
    dev_qids: dict[int, int] = field(default_factory=dict)

    def ring(self, qid: int) -> None:
        """A front SQ doorbell: no SQE fetch, no pipeline — relay it to
        the device queue after a fixed delay, through whichever binding
        the function has by then."""
        fn = self.fn
        self.engine.sim.timeout(self.engine.timings.passthrough_db_ns).callbacks.append(
            lambda _ev: fn.passthrough is not None and fn.passthrough._relay(qid))

    def _relay(self, qid: int) -> None:
        dev_qid = self.dev_qids.get(qid)
        ssd = self.engine.adaptor.drive(self.ssd_id)
        # a yanked drive loses the doorbell write: the host driver's
        # command timeout is the only recovery path
        if dev_qid is not None and ssd is not None:
            ssd._on_sq_doorbell(dev_qid)

    def map_queue(self, qid: int, qp, ssd=None) -> None:
        """Attach a host SQ/CQ pair to the drive (shared rings)."""
        if qid == 0:
            return
        self.dev_qids[qid] = dev_qid = PASSTHROUGH_QID_BASE + qid
        if ssd is None:
            ssd = self.engine.adaptor.drive(self.ssd_id)
        if ssd is not None:
            ssd.attach_queue_pair(dev_qid, qp.sq, qp.cq).translation = self.translation

    def unmap_queue(self, qid: int) -> None:
        dev_qid = self.dev_qids.pop(qid, None)
        ssd = self.engine.adaptor.drive(self.ssd_id)
        if dev_qid is not None and ssd is not None:
            ssd.detach_queue_pair(dev_qid)

    def disable(self) -> None:
        """Leave passthrough mode: the function is interposed again."""
        self.fn.passthrough = None
        self._detach(self.engine.adaptor.drive(self.ssd_id))
        self.dev_qids.clear()

    def _detach(self, ssd) -> None:
        if ssd is not None:
            for dev_qid in self.dev_qids.values():
                ssd.detach_queue_pair(dev_qid)


class Passthrough:
    """The engine's passthrough mode (``engine.passthrough_mode()``)."""

    def __init__(self, engine: BMSEngine):
        self.engine = engine
        engine.hooks.slot_removal.append((self._kill_translations, self._detach_queues))
        engine.hooks.slot_attach.append(self._remap_queues)

    def bindings_on(self, ssd_id: int) -> list[PassthroughBinding]:
        """Bindings onto slot ``ssd_id``, in function-id order."""
        return [fn.passthrough for fn in self.engine.sriov.functions.values()
                if fn.passthrough is not None and fn.passthrough.ssd_id == ssd_id]

    def enable(self, key: str) -> PassthroughBinding:
        """Map the bound function's I/O queues straight onto the SSD.

        Requires the namespace to live on exactly one back-end drive as
        one contiguous ascending physical extent, because the device
        then translates LBAs with a single constant offset — there is
        no per-command mapping stage left to scatter extents.
        """
        engine = self.engine
        ens = engine.namespaces.get(key)
        if ens is None:
            raise SimulationError(f"no namespace {key}")
        if ens.bound_fn is None:
            raise SimulationError(
                f"namespace {key} must be bound to a function before passthrough"
            )
        fn = engine.sriov.function_by_id(ens.bound_fn)
        if fn.passthrough is not None:
            raise SimulationError(f"function {fn.fn_id} already in passthrough mode")
        ssd_ids = {ssd_id for ssd_id, _ in ens.chunks}
        if len(ssd_ids) != 1:
            raise SimulationError(
                f"passthrough requires a single-SSD namespace; {key} spans "
                f"SSDs {sorted(ssd_ids)}"
            )
        ssd_id = ssd_ids.pop()
        base_chunk = ens.chunks[0][1]
        for i, (_, chunk) in enumerate(ens.chunks):
            if chunk != base_chunk + i:
                raise SimulationError(
                    f"passthrough requires one contiguous physical extent; "
                    f"{key} is fragmented on SSD {ssd_id}"
                )
        translation = DMATranslation(
            fn_id=fn.fn_id,
            lba_offset=base_chunk * engine.chunk_blocks,
            num_blocks=ens.namespace.num_blocks,
            raise_vector=lambda vector: fn.function.msix.post_vector(
                engine.front_port, vector),
        )
        fn.passthrough = binding = PassthroughBinding(engine, fn, ssd_id, translation)
        # queues attached before enabling get mapped retroactively
        for qid, qp in sorted(fn.queue_pairs.items()):
            binding.map_queue(qid, qp)
        return binding

    # ------------------------------------------------------------ slot hooks
    def _kill_translations(self, ssd_id: int) -> None:
        # before the slot empties: commands the drive already fetched
        # can no longer land CQEs or raise MSI-X, which is exactly the
        # driver-timeout-only recovery of a passthrough path with no
        # interposed safety net
        for binding in self.bindings_on(ssd_id):
            binding.translation.live = False

    def _detach_queues(self, ssd_id: int, removed) -> None:
        for binding in self.bindings_on(ssd_id):
            binding._detach(removed)

    def _remap_queues(self, ssd_id: int, ssd) -> None:
        """A replacement drive landed: re-map the queues with a fresh
        (live) translation and kick their doorbells, so SQEs submitted
        while the slot was empty get fetched without waiting for the
        next host submission."""
        for binding in self.bindings_on(ssd_id):
            old = binding.translation
            binding.translation = DMATranslation(
                fn_id=old.fn_id, lba_offset=old.lba_offset,
                num_blocks=old.num_blocks, raise_vector=old.raise_vector,
            )
            for host_qid in sorted(binding.dev_qids):
                qp = binding.fn.queue_pairs.get(host_qid)
                if qp is None:
                    continue
                binding.map_queue(host_qid, qp, ssd)
                # slots the old drive consumed before it was yanked are
                # provably dead; recover their leaked (timed-out) SQEs
                # before the replay kick fetches the live window
                qp.sq.reclaim_dead_slots()
                ssd._on_sq_doorbell(binding.dev_qids[host_qid])
