"""NVMe command structures: submission (SQE) and completion (CQE) entries.

These are the structured stand-ins for the 64-byte / 16-byte wire
formats; the queue layer charges their real wire sizes when they move
over PCIe.  PRP entries are genuine 64-bit integers so the BMS-Engine's
global-PRP bit manipulation (paper Fig. 4b) operates on real addresses.

Both entry types are recycled through module-level free lists
(:func:`alloc_sqe` / :func:`free_sqe` and the CQE pair): the hot I/O
path allocates one SQE and one CQE per command, and both are dead the
moment the host driver finalizes the completion, so the ``counters``
observability mode runs without per-I/O allocation.  Pooling contract:
an entry may be freed only once, only by the component that finalizes
it, and never while any ring slot between head and tail still names it.
A timed-out command's SQE cannot be freed at abort time (its stale ring
entry can still be fetched after a hot-plug replay); the driver instead
parks it in the submission ring's leak ledger
(:meth:`~repro.nvme.queues.SubmissionQueue.note_leaked`), and the ring
retires it (:func:`retire_sqe`) once no fetch can reach it — when its
slot is overwritten by a later push, or when the queue is
re-attached/torn down and the slot sits outside the live
``[head, tail)`` window.  Retired entries are counted dead but never
recycled: a consumer that fetched the command before it timed out may
still be executing it, and a recycled entry would rewrite its cid and
PRPs underneath that execution.
:func:`pool_stats` exposes the live-entry high-water mark so soak tests
can pin that the ledger keeps the pool bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .spec import StatusCode

__all__ = ["SQE", "CQE", "alloc_sqe", "free_sqe", "retire_sqe", "alloc_cqe",
           "free_cqe", "pool_stats"]


@dataclass(slots=True)
class SQE:
    """Submission queue entry (the fields BM-Store routes/rewrites).

    ``prp1``/``prp2`` follow NVMe semantics: for transfers <= 2 pages
    they are direct data pointers; beyond that ``prp2`` points at a PRP
    list in memory.
    """

    opcode: int
    cid: int
    nsid: int
    slba: int = 0
    nlb: int = 0  # 0's-based block count (0 means 1 block)
    prp1: int = 0
    prp2: int = 0
    # non-wire simulation conveniences ------------------------------------
    payload: Optional[bytes] = field(default=None, repr=False)
    submit_time_ns: int = 0
    cdw10: int = 0  # generic command dword (admin commands)
    cdw11: int = 0
    #: sampled IOSpan riding on the command (observability only)
    span: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def num_blocks(self) -> int:
        return self.nlb + 1


@dataclass(slots=True)
class CQE:
    """Completion queue entry."""

    cid: int
    status: int = int(StatusCode.SUCCESS)
    sq_head: int = 0
    sqid: int = 0
    phase: int = 1
    result: int = 0

    @property
    def ok(self) -> bool:
        return self.status == int(StatusCode.SUCCESS)


# ---------------------------------------------------------------- free lists
_SQE_POOL: list = []
_CQE_POOL: list = []
_POOL_CAP = 4096
# live SQE accounting (allocs minus frees through this module): the
# high-water mark is what the leak-reclaim soak tests pin
_SQE_STATS = {"outstanding": 0, "peak": 0}


def pool_stats() -> dict:
    """Live SQE count, its high-water mark, and free-list sizes."""
    return {
        "sqe_outstanding": _SQE_STATS["outstanding"],
        "sqe_peak": _SQE_STATS["peak"],
        "sqe_free": len(_SQE_POOL),
        "cqe_free": len(_CQE_POOL),
    }


def alloc_sqe(opcode: int, cid: int, nsid: int, slba: int = 0, nlb: int = 0,
              prp1: int = 0, prp2: int = 0, payload: Optional[bytes] = None,
              submit_time_ns: int = 0, cdw10: int = 0, cdw11: int = 0) -> SQE:
    """A fully-initialized SQE, recycled from the free list when possible."""
    stats = _SQE_STATS
    stats["outstanding"] += 1
    if stats["outstanding"] > stats["peak"]:
        stats["peak"] = stats["outstanding"]
    if _SQE_POOL:
        sqe = _SQE_POOL.pop()
        sqe.opcode = opcode
        sqe.cid = cid
        sqe.nsid = nsid
        sqe.slba = slba
        sqe.nlb = nlb
        sqe.prp1 = prp1
        sqe.prp2 = prp2
        sqe.payload = payload
        sqe.submit_time_ns = submit_time_ns
        sqe.cdw10 = cdw10
        sqe.cdw11 = cdw11
        sqe.span = None
        return sqe
    return SQE(opcode=opcode, cid=cid, nsid=nsid, slba=slba, nlb=nlb,
               prp1=prp1, prp2=prp2, payload=payload,
               submit_time_ns=submit_time_ns, cdw10=cdw10, cdw11=cdw11)


def retire_sqe(sqe: SQE) -> None:
    """Count a timed-out command's SQE dead without recycling it (the
    garbage collector takes it once its last consumer lets go)."""
    if _SQE_STATS["outstanding"] > 0:
        _SQE_STATS["outstanding"] -= 1


def free_sqe(sqe: SQE) -> None:
    retire_sqe(sqe)
    if len(_SQE_POOL) < _POOL_CAP:
        sqe.payload = None
        sqe.span = None
        _SQE_POOL.append(sqe)


def alloc_cqe(cid: int, status: int, sq_head: int, sqid: int,
              result: int = 0) -> CQE:
    """A CQE ready for :meth:`CompletionQueue.post_slot` (phase stamped there)."""
    if _CQE_POOL:
        cqe = _CQE_POOL.pop()
        cqe.cid = cid
        cqe.status = status
        cqe.sq_head = sq_head
        cqe.sqid = sqid
        cqe.phase = 1
        cqe.result = result
        return cqe
    return CQE(cid=cid, status=status, sq_head=sq_head, sqid=sqid,
               result=result)


def free_cqe(cqe: CQE) -> None:
    if len(_CQE_POOL) < _POOL_CAP:
        _CQE_POOL.append(cqe)
