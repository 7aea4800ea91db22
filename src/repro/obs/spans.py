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

Filed spans live in :class:`SpanLog` as columns, not objects: ``submit``
as one ``array('q')`` of absolute times, every other stage as an
``array('i')`` of offsets from its row's ``submit``, created only once
some row stamps that stage, plus interned ``op``/``origin`` codes.  A
row costs 8 bytes, 4 more per other stamped stage and 4 for its codes:
20 bytes for a passthrough or native command (submit, ssd_dma,
interrupt), 48 for a BM-Store read (the seven canonical stages plus
``qos``, ``forward`` and ``backend_done``), so a full log of ten
thousand spans costs 200-480 kB.  Reading the log yields
:class:`SpanRow` views with the same read API as :class:`IOSpan`.
"""

from __future__ import annotations

import operator
from array import array
from typing import Callable, Iterator, Optional

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

#: a column cell whose stage was never stamped: the most negative value
#: of the column's type (a ``submit`` time is never negative, and an
#: offset that would equal it widens its column instead)
_UNSTAMPED = -(1 << 63)
_UNSTAMPED32 = -(1 << 31)


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
        return None if i is None else self._log._time(i, self._row)

    def ordered_stamps(self) -> list[tuple[str, int]]:
        time, row = self._log._time, self._row
        return [(stage, t) for i, stage in enumerate(STAMP_ORDER)
                if (t := time(i, row)) is not None]


class SpanLog:
    """Capacity-bounded, columnar store of filed spans.

    The first ``capacity`` spans are kept (enough for any per-stage
    statistic); later arrivals only bump ``dropped`` so long runs stay
    bounded.  A row is copied out of its :class:`IOSpan` when filed and
    never changes afterwards, even if a timed-out attempt still stamps
    the span.

    ``submit`` is one ``array('q')`` of absolute times.  Every other
    stage's column is created the first time a row stamps it (the rows
    before it back-filled as unstamped) and holds offsets from the
    row's ``submit`` as ``array('i')``; an offset outside 32 bits (or
    equal to the unstamped cell value) widens that one column to
    ``array('q')`` for good.  A row without
    ``submit`` stores its other stages as absolute times, which widen
    the same way.

    :meth:`fold` hands the per-stage durations of the rows filed since
    its last call to whoever keeps statistics over them (the
    registry's stage histograms); :attr:`on_clear` lets that owner fold
    the rows before :meth:`clear` discards them.
    """

    #: rows per batch in :meth:`fold` (bounds its temporaries)
    FOLD_ROWS = 256

    def __init__(self, capacity: int = 10_000):
        self.capacity = capacity
        self.dropped = 0
        self.folded = 0  # rows already handed out by fold()
        self.on_clear: Optional[Callable[[], None]] = None
        self._submit = array("q")
        # stage index -> column (None until a row stamps the stage) and
        # the unstamped cell value of that column's type
        self._cols: list[Optional[array]] = [None] * len(STAMP_ORDER)
        self._gaps = [_UNSTAMPED32] * len(STAMP_ORDER)
        self._cols[0], self._gaps[0] = self._submit, _UNSTAMPED
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

    def _widen(self, i: int) -> array:
        """Stage ``i``'s column as 64-bit cells from now on."""
        gap = self._gaps[i]
        col = self._cols[i] = array(
            "q", (_UNSTAMPED if t == gap else t for t in self._cols[i]))
        self._gaps[i] = _UNSTAMPED
        return col

    def add(self, span: IOSpan) -> bool:
        """File ``span`` as one row; False (and counted dropped) once full."""
        row = len(self._ops)
        if row >= self.capacity:
            self.dropped += 1
            return False
        times = span._times
        base = times[0]
        if base is None:
            self._submit.append(_UNSTAMPED)
            base = 0
        else:
            self._submit.append(base)
        cols, gaps = self._cols, self._gaps
        for i in range(1, len(times)):
            t, col = times[i], cols[i]
            if t is None:
                if col is not None:
                    col.append(gaps[i])
                continue
            if col is None:  # the first row to stamp this stage
                col = cols[i] = array("i", [_UNSTAMPED32]) * row
            t -= base
            if t == gaps[i]:
                col = self._widen(i)
            try:
                col.append(t)
            except OverflowError:
                self._widen(i).append(t)
        self._ops.append(self._code(span.op))
        self._origins.append(self._code(span.origin))
        if span.faults:
            self._faults[row] = tuple(span.faults)
        return True

    def _time(self, i: int, row: int) -> Optional[int]:
        """Stage ``i``'s absolute time in ``row``, None if unstamped."""
        col = self._cols[i]
        if col is None:
            return None
        t = col[row]
        if t == self._gaps[i]:
            return None
        if i:
            base = self._submit[row]
            if base != _UNSTAMPED:
                t += base
        return t

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[SpanRow]:
        return (SpanRow(self, row) for row in range(len(self._ops)))

    def __getitem__(self, index: int) -> SpanRow:
        return SpanRow(self, range(len(self._ops))[index])

    def _complete_rows(self) -> Iterator[int]:
        cols = [self._cols[i] for i in _CANONICAL]
        if any(col is None for col in cols):
            return iter(())
        gaps = [self._gaps[i] for i in _CANONICAL]
        return (row for row, cells in enumerate(zip(*cols))
                if not any(map(operator.eq, cells, gaps)))

    def complete(self) -> list[SpanRow]:
        """Rows that stamped every canonical stage."""
        return [SpanRow(self, row) for row in self._complete_rows()]

    def count_complete(self) -> int:
        """``len(complete())``, without building the rows."""
        return sum(1 for _ in self._complete_rows())

    @property
    def with_faults(self) -> int:
        """Rows that hit at least one injected fault."""
        return len(self._faults)

    def fold(self) -> Iterator[tuple[list[tuple[str, list[int]]], list[int]]]:
        """The durations of every row filed since the last fold.

        Yields one batch per :attr:`FOLD_ROWS` rows, in row order: the
        per-stage deltas (each stamped stage's time since the row's
        previous stamped stage, as :meth:`IOSpan.stage_deltas` gives
        them) in :data:`STAMP_ORDER`, and the ``submit -> interrupt``
        totals.  Each column is read in one pass per batch.
        """
        end = len(self._ops)
        cols, gaps = self._cols, self._gaps
        while self.folded < end:
            start = self.folded
            stop = self.folded = min(end, start + self.FOLD_ROWS)
            bases = self._submit[start:stop]
            # each row's previous stamp, offset-relative; None = none yet
            last = [None if t == _UNSTAMPED else 0 for t in bases]
            stages = []
            for i in range(1, len(cols)):
                col = cols[i]
                if col is None:
                    continue
                gap, cells = gaps[i], col[start:stop]
                deltas = [t - prev for t, prev in zip(cells, last)
                          if t != gap and prev is not None]
                if deltas:
                    stages.append((STAMP_ORDER[i], deltas))
                last = [prev if t == gap else t for t, prev in zip(cells, last)]
            interrupt, gap = cols[-1], gaps[-1]
            totals = [] if interrupt is None else [
                t for t, base in zip(interrupt[start:stop], bases)
                if t != gap and base != _UNSTAMPED]
            yield stages, totals

    def clear(self) -> None:
        if self.on_clear is not None:
            self.on_clear()
        del self._submit[:], self._ops[:], self._origins[:]
        self._cols[1:] = [None] * (len(STAMP_ORDER) - 1)
        self._gaps[1:] = [_UNSTAMPED32] * (len(STAMP_ORDER) - 1)
        self._names.clear()
        self._codes.clear()
        self._faults.clear()
        self.dropped = 0
        self.folded = 0
