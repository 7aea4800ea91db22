"""Physical Region Page (PRP) chains: build, walk and release.

NVMe describes data buffers as PRP entries: 64-bit page addresses.
``prp1`` points at the first (possibly unaligned) page; for transfers
beyond two pages ``prp2`` points at a *PRP list* in memory.  The
BMS-Engine's zero-copy trick (paper Fig. 4b) rewrites these very
entries, so they are real integers here.

This module is the one owner of the chain layout.  Producers (the host
driver, the SPDK target, the engine's forwarder) build lists into a
:class:`~repro.host.memory.BufferPool` with :func:`build_prps` and hand
them back with :func:`release_prps`; consumers (the engine, the SSD, the
SATA/remote slots) size the list fetch with :func:`prp_list_bytes`,
fetch it themselves (the fetch is what costs simulated time), and
resolve the chain with :func:`walk_prps`.

A chain is a sequence of page addresses.  When its pages are
contiguous and page-aligned it is a *run*, a ``range(start, stop,
PAGE_SIZE)``, so a 128 KiB command's chain costs the same few words as
a 4 KiB one; otherwise it is a list.  Only the producers
(:func:`pages_for`, :func:`build_prps`, :func:`walk_prps` and the
engine's tagging, :func:`repro.core.dma_routing.encode_global_prps`)
tell the two shapes apart; consumers index, slice, ``len`` and iterate
a chain and never test its type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..sim import SimulationError
from ..sim.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from ..host.memory import BufferPool

__all__ = [
    "PRP_ENTRY_BYTES",
    "PRPList",
    "build_prps",
    "release_prps",
    "prp_list_bytes",
    "walk_prps",
    "page_spans",
    "pages_for",
]

PRP_ENTRY_BYTES = 8


@dataclass(slots=True)
class PRPList:
    """A PRP list stored at ``addr`` in some memory."""

    addr: int
    entries: Sequence[int]


def pages_for(buffer_addr: int, length: int) -> Sequence[int]:
    """Page-granular addresses covering [buffer_addr, buffer_addr+length):
    a run for a page-aligned buffer, else the offset first page plus
    the aligned pages after it, as a list."""
    if length <= 0:
        return []
    end = buffer_addr + length
    offset = buffer_addr % PAGE_SIZE
    if not offset:
        return range(buffer_addr, end + (-end % PAGE_SIZE), PAGE_SIZE)
    after = buffer_addr - offset + PAGE_SIZE
    return [buffer_addr, *range(after, end, PAGE_SIZE)]


def _page_count(prp1: int, length: int) -> int:
    return (prp1 % PAGE_SIZE + length + PAGE_SIZE - 1) // PAGE_SIZE


def prp_list_bytes(prp1: int, length: int) -> int:
    """Wire size of the PRP list a (prp1, length) transfer needs; 0
    when ``prp2`` is a direct data pointer (or unused)."""
    npages = _page_count(prp1, length)
    return (npages - 1) * PRP_ENTRY_BYTES if npages > 2 else 0


def build_prps(pool: "BufferPool", pages: Sequence[int]) -> tuple[int, int]:
    """Build PRP entries for resolved data pages; returns (prp1, prp2).

    Beyond two pages the list buffer comes from ``pool`` and the
    :class:`PRPList` is parked at its address (list semantics are
    flagged by the consumer knowing the transfer size, as in the spec).
    The entries are ``pages[1:]``, a run when ``pages`` is one.
    Hand it back with :func:`release_prps` once the command completes.
    """
    if not pages:
        raise SimulationError("zero-length PRP build")
    if len(pages) == 1:
        return pages[0], 0
    if len(pages) == 2:
        return pages[0], pages[1]
    entries = pages[1:]
    addr = pool.get(len(entries) * PRP_ENTRY_BYTES)
    pool.memory_for(addr).store_obj(addr, PRPList(addr, entries))
    return pages[0], addr


def release_prps(pool: "BufferPool", prp1: int, prp2: int, length: int) -> None:
    """Return the list :func:`build_prps` made for this chain, if any.

    The parked object is dropped *before* the buffer recycles:
    page-rounded buckets can hand this address to a data buffer, whose
    reads must see bytes, not a stale list.
    """
    nbytes = prp_list_bytes(prp1, length)
    if nbytes:
        pool.memory_for(prp2).pop_obj(prp2)
        pool.put(prp2, nbytes)


def walk_prps(prp1: int, prp2: int, length: int, prp_list: Any) -> Sequence[int]:
    """Resolve (prp1, prp2, length) into page addresses.

    ``prp_list`` is what the consumer fetched from ``prp2`` when
    :func:`prp_list_bytes` is non-zero (ignored otherwise).  A run of
    entries that continues an aligned ``prp1`` page by page resolves to
    a run; any other chain to a list.

    Per the NVMe spec only ``prp1`` may carry a page offset: ``prp2``
    as a second data pointer and every PRP-list entry must be
    page-aligned, or the device would fabricate DMA addresses inside
    the wrong page (fatal for the Fig. 4b zero-copy rewrite, which
    forwards these entries verbatim).
    """
    npages = _page_count(prp1, length)
    if npages <= 1:
        return [prp1]
    if npages == 2:
        if prp2 % PAGE_SIZE:
            raise SimulationError(
                f"prp2 {prp2:#x} is not page-aligned (only prp1 may be offset)"
            )
        return [prp1, prp2]
    if not isinstance(prp_list, PRPList):
        raise SimulationError(f"prp2 {prp2:#x} does not point at a PRP list")
    if len(prp_list.entries) < npages - 1:
        raise SimulationError("PRP list shorter than the transfer")
    used = prp_list.entries[: npages - 1]
    if isinstance(used, range) and not (used.start | used.step) % PAGE_SIZE:
        # an aligned start and an aligned step align every entry
        if used.step == PAGE_SIZE and used.start == prp1 + PAGE_SIZE \
                and not prp1 % PAGE_SIZE:
            return range(prp1, prp1 + npages * PAGE_SIZE, PAGE_SIZE)
    else:
        for item in used:
            if item % PAGE_SIZE:
                raise SimulationError(
                    f"PRP list entry {item:#x} is not page-aligned"
                )
    return [prp1, *used]


def page_spans(pages: Sequence[int], length: int) -> Iterator[tuple[int, int, int]]:
    """``(addr, offset, nbytes)`` for each page a transfer touches:
    ``offset`` is the span's position within the transfer's bytes."""
    offset = 0
    for addr in pages:
        if offset >= length:
            return
        nbytes = min(PAGE_SIZE - addr % PAGE_SIZE, length - offset)
        yield addr, offset, nbytes
        offset += nbytes
