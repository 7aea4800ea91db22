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

Filed spans live in :class:`SpanLog` as columns, not objects: one
``array('q')`` per stage plus interned ``op``/``origin`` codes, so a
full log of ten thousand spans costs under a megabyte.  Reading the log
yields :class:`SpanRow` views with the same read API as :class:`IOSpan`.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional

__all__ = ["STAGES", "STAMP_ORDER", "IOSpan", "SpanRow", "SpanLog"]

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

#: full stamping order, canonical stages + refinements; the stage set
#: is closed: :meth:`IOSpan.stamp` refuses any other name
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

_STAGE_INDEX = {stage: i for i, stage in enumerate(STAMP_ORDER)}
_CANONICAL = tuple(_STAGE_INDEX[stage] for stage in STAGES)

#: a column cell whose stage was never stamped (sim time is never negative)
_UNSTAMPED = -(1 << 63)


class _SpanReads:
    """The read API shared by live spans and filed rows.

    Subclasses supply ``op``, ``origin``, ``faults``, ``get(stage)``
    and ``ordered_stamps()`` (the (stage, time) pairs in datapath
    order); everything else derives from those two.
    """

    __slots__ = ()

    def __contains__(self, stage: str) -> bool:
        return self.get(stage) is not None

    @property
    def is_complete(self) -> bool:
        """All seven canonical stages stamped."""
        return all(self.get(stage) is not None for stage in STAGES)

    @property
    def is_monotone(self) -> bool:
        """Timestamps never decrease along the stamp order."""
        last = None
        for _, t in self.ordered_stamps():
            if last is not None and t < last:
                return False
            last = t
        return True

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
        a, b = self.get(start_stage), self.get(end_stage)
        if a is None or b is None:
            return None
        return b - a

    def total_ns(self) -> Optional[int]:
        """submit -> interrupt, the host-observed command latency."""
        return self.duration_ns("submit", "interrupt")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "->".join(s for s, _ in self.ordered_stamps())
        return f"<{type(self).__name__} {self.op} {path}>"


class IOSpan(_SpanReads):
    """Stage timestamps of one command's trip through the datapath.

    The stamps live in one fixed list, a slot per stage of
    :data:`STAMP_ORDER` (None = not stamped): a span rides every
    command in flight, and a list of eleven costs less than a dict.
    """

    __slots__ = ("op", "origin", "_times", "faults")

    def __init__(self, op: str, origin: str = ""):
        self.op = op  # "read" | "write" | "flush" | opcode repr
        self.origin = origin  # submitting driver's name
        self._times: list[Optional[int]] = [None] * len(STAMP_ORDER)
        self.faults: list[str] = []  # injected-fault kinds this span hit

    def stamp(self, stage: str, time_ns: int) -> None:
        """Record ``stage`` at ``time_ns`` (re-stamping keeps the latest)."""
        i = _STAGE_INDEX.get(stage)
        if i is None:
            raise ValueError(f"unknown span stage {stage!r} (known: {STAMP_ORDER})")
        self._times[i] = time_ns

    def note_fault(self, kind: str) -> None:
        """Mark this command as having hit an injected fault."""
        self.faults.append(kind)

    @property
    def stamps(self) -> dict[str, int]:
        """stage -> time of every stamped stage, in datapath order."""
        return dict(self.ordered_stamps())

    def get(self, stage: str) -> Optional[int]:
        i = _STAGE_INDEX.get(stage)
        return None if i is None else self._times[i]

    def ordered_stamps(self) -> list[tuple[str, int]]:
        """(stage, time) pairs in datapath order."""
        return [(stage, t) for stage, t in zip(STAMP_ORDER, self._times)
                if t is not None]


class SpanRow(_SpanReads):
    """A read-only view of one filed span: a (log, row) pair."""

    __slots__ = ("_log", "_row")

    def __init__(self, log: "SpanLog", row: int):
        self._log = log
        self._row = row

    @property
    def op(self) -> str:
        return self._log._names[self._log._ops[self._row]]

    @property
    def origin(self) -> str:
        return self._log._names[self._log._origins[self._row]]

    @property
    def faults(self) -> list[str]:
        return list(self._log._faults.get(self._row, ()))

    @property
    def stamps(self) -> dict[str, int]:
        return dict(self.ordered_stamps())

    def get(self, stage: str) -> Optional[int]:
        i = _STAGE_INDEX.get(stage)
        if i is None:
            return None
        t = self._log._cols[i][self._row]
        return None if t == _UNSTAMPED else t

    def ordered_stamps(self) -> list[tuple[str, int]]:
        row = self._row
        return [(stage, t) for stage, col in zip(STAMP_ORDER, self._log._cols)
                if (t := col[row]) != _UNSTAMPED]


class SpanLog:
    """Capacity-bounded, columnar store of filed spans.

    The first ``capacity`` spans are kept (enough for any per-stage
    statistic); later arrivals only bump ``dropped`` so long runs stay
    bounded.  A row is copied out of its :class:`IOSpan` when filed and
    never changes afterwards, even if a timed-out attempt still stamps
    the span.
    """

    def __init__(self, capacity: int = 10_000):
        self.capacity = capacity
        self.dropped = 0
        self._cols = tuple(array("q") for _ in STAMP_ORDER)
        self._ops = array("H")
        self._origins = array("H")
        self._names: list[str] = []  # interned op/origin strings
        self._codes: dict[str, int] = {}
        self._faults: dict[int, tuple[str, ...]] = {}  # sparse: row -> kinds

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self._names)
            self._names.append(name)
        return code

    def add(self, span: IOSpan) -> list[tuple[str, int]]:
        """File ``span`` as one row (or count it dropped once full).

        Returns the span's (stage, time) pairs in datapath order, read
        in the same walk that fills the row."""
        row = len(self._ops)
        if row >= self.capacity:
            self.dropped += 1
            return span.ordered_stamps()
        ordered = []
        for stage, col, t in zip(STAMP_ORDER, self._cols, span._times):
            if t is None:
                col.append(_UNSTAMPED)
            else:
                col.append(t)
                ordered.append((stage, t))
        self._ops.append(self._code(span.op))
        self._origins.append(self._code(span.origin))
        if span.faults:
            self._faults[row] = tuple(span.faults)
        return ordered

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[SpanRow]:
        return (SpanRow(self, row) for row in range(len(self._ops)))

    def __getitem__(self, index: int) -> SpanRow:
        return SpanRow(self, range(len(self._ops))[index])

    def complete(self) -> list[SpanRow]:
        """Rows that stamped every canonical stage."""
        canonical = [self._cols[i] for i in _CANONICAL]
        return [SpanRow(self, row) for row, cells in enumerate(zip(*canonical))
                if _UNSTAMPED not in cells]

    @property
    def with_faults(self) -> int:
        """Rows that hit at least one injected fault."""
        return len(self._faults)

    def clear(self) -> None:
        for col in (*self._cols, self._ops, self._origins):
            del col[:]
        self._names.clear()
        self._codes.clear()
        self._faults.clear()
        self.dropped = 0
