"""Per-command span tracing of the Fig. 6 I/O path.

Every NVMe command submitted by an observed driver carries one
:class:`IOSpan`.  Each layer it crosses stamps a stage timestamp on it:

===============  =============================================  ==================
stage            where it is stamped                            layer
===============  =============================================  ==================
``submit``       driver submission path entry                   ``host/driver.py``
``doorbell``     front doorbell ring wakes the fetch engine     ``core/sriov_layer.py`` -> engine
``fetch``        Target Controller receives the fetched SQE     ``core/target_controller.py``
``lba_map``      LBA mapping translated (eqs. 1-4)              ``core/engine.py`` / ``core/lba_mapping.py``
``qos``          QoS admitted the command (may have buffered)   ``core/qos.py`` (extra stage)
``forward``      back-end command(s) pushed to the adaptor      ``core/engine.py`` (extra stage)
``ssd_dma``      back-end SSD finished media + zero-copy DMA    ``nvme/ssd.py``
``backend_done``  fan-in: every back-end fragment completed     ``core/engine.py`` (extra stage)
``push_exec``    pushdown interpreter finished its program      ``push/manager.py`` (extra stage)
``complete``     CQE relayed into the host completion queue     ``core/engine.py``
``interrupt``    host IRQ path delivered the completion         ``host/driver.py``
===============  =============================================  ==================

The seven stages of :data:`STAGES` are canonical: a span through the
BM-Store datapath is *complete* when all seven are stamped.  The extra
stages refine the breakdown (they are what
``repro.experiments.latency_breakdown`` itemizes) but schemes without
an engine (native, VFIO) legitimately never stamp them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Optional

__all__ = ["STAGES", "STAMP_ORDER", "IOSpan", "SpanLog"]

#: the seven canonical stages every completed BM-Store command stamps
STAGES = (
    "submit",
    "doorbell",
    "fetch",
    "lba_map",
    "ssd_dma",
    "complete",
    "interrupt",
)

#: full stamping order, canonical stages + refinements
STAMP_ORDER = (
    "submit",
    "doorbell",
    "fetch",
    "lba_map",
    "qos",
    "forward",
    "ssd_dma",
    "backend_done",
    "push_exec",
    "complete",
    "interrupt",
)

_KNOWN_STAGES = frozenset(STAMP_ORDER)


class IOSpan:
    """Stage timestamps of one command's trip through the datapath."""

    __slots__ = ("op", "origin", "stamps", "faults")

    def __init__(self, op: str, origin: str = ""):
        self.op = op  # "read" | "write" | "flush" | opcode repr
        self.origin = origin  # submitting driver's name
        self.stamps: dict[str, int] = {}
        self.faults: list[str] = []  # injected-fault kinds this span hit

    def stamp(self, stage: str, time_ns: int) -> None:
        """Record ``stage`` at ``time_ns`` (re-stamping keeps the latest)."""
        self.stamps[stage] = time_ns

    def note_fault(self, kind: str) -> None:
        """Mark this command as having hit an injected fault."""
        self.faults.append(kind)

    def __contains__(self, stage: str) -> bool:
        return stage in self.stamps

    def get(self, stage: str) -> Optional[int]:
        return self.stamps.get(stage)

    @property
    def is_complete(self) -> bool:
        """All seven canonical stages stamped."""
        return all(stage in self.stamps for stage in STAGES)

    @property
    def is_monotone(self) -> bool:
        """Timestamps never decrease along the stamp order."""
        last = None
        for t in self.ordered_stamps():
            if last is not None and t[1] < last:
                return False
            last = t[1]
        return True

    def ordered_stamps(self) -> list[tuple[str, int]]:
        """(stage, time) pairs in datapath order (unknown stages last,
        by time)."""
        stamps = self.stamps
        ordered = [(stage, stamps[stage]) for stage in STAMP_ORDER if stage in stamps]
        if len(ordered) < len(stamps):
            ordered += sorted(
                ((stage, t) for stage, t in stamps.items() if stage not in _KNOWN_STAGES),
                key=itemgetter(1),
            )
        return ordered

    def stage_deltas(self) -> list[tuple[str, int]]:
        """Per-stage durations: each stamped stage labeled with the time
        since the previous stamped stage (the first stage is skipped)."""
        ordered = self.ordered_stamps()
        return [
            (stage, t - ordered[i - 1][1])
            for i, (stage, t) in enumerate(ordered)
            if i > 0
        ]

    def duration_ns(self, start_stage: str, end_stage: str) -> Optional[int]:
        a, b = self.stamps.get(start_stage), self.stamps.get(end_stage)
        if a is None or b is None:
            return None
        return b - a

    def total_ns(self) -> Optional[int]:
        """submit -> interrupt, the host-observed command latency."""
        return self.duration_ns("submit", "interrupt")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "->".join(s for s, _ in self.ordered_stamps())
        return f"<IOSpan {self.op} {path}>"


class SpanLog:
    """Capacity-bounded store of completed spans.

    The first ``capacity`` spans are kept verbatim (enough for any
    per-stage statistic); later arrivals only bump ``dropped`` so
    long runs stay bounded.
    """

    def __init__(self, capacity: int = 10_000):
        self.capacity = capacity
        self._spans: list[IOSpan] = []
        self.dropped = 0

    def add(self, span: IOSpan) -> None:
        if len(self._spans) < self.capacity:
            self._spans.append(span)
        else:
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[IOSpan]:
        return iter(self._spans)

    def __getitem__(self, index: int) -> IOSpan:
        return self._spans[index]

    def complete(self) -> list[IOSpan]:
        """Spans that stamped every canonical stage."""
        return [s for s in self._spans if s.is_complete]

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0
