"""The columnar span log: rows round-trip every field of a filed span,
stay frozen once filed, a full log stays small, and the stage
histograms folded from it equal per-span observation."""

import tracemalloc
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import STAGES, Histogram, IOSpan, MetricsRegistry, SpanLog
from repro.obs.spans import STAMP_ORDER, SpanRow


def _span(op="read", origin="nvme0", start=0, stages=STAMP_ORDER, step=10):
    span = IOSpan(op, origin=origin)
    for i, stage in enumerate(stages):
        span.stamp(stage, start + i * step)
    return span


def test_row_round_trips_op_origin_and_every_stamp():
    log = SpanLog()
    span = _span(op="write", origin="vm3", start=1000)
    log.add(span)
    row = log[0]
    assert isinstance(row, SpanRow)
    assert (row.op, row.origin) == ("write", "vm3")
    assert row.stamps == span.stamps
    assert row.ordered_stamps() == span.ordered_stamps()
    assert row.stage_deltas() == span.stage_deltas()
    for stage in STAMP_ORDER:
        assert stage in row
        assert row.get(stage) == span.get(stage)
    assert row.total_ns() == span.total_ns() == 10 * (len(STAMP_ORDER) - 1)
    assert row.duration_ns("fetch", "complete") == span.duration_ns("fetch", "complete")
    assert row.faults == []


def test_row_keeps_unstamped_stages_absent():
    log = SpanLog()
    log.add(_span(stages=("submit", "interrupt")))
    row = log[0]
    assert "doorbell" not in row and row.get("doorbell") is None
    assert row.duration_ns("submit", "doorbell") is None
    assert row.stamps == {"submit": 0, "interrupt": 10}


def test_restamp_files_the_latest_time():
    span = _span(stages=("submit",))
    span.stamp("ssd_dma", 10)
    span.stamp("ssd_dma", 30)
    log = SpanLog()
    log.add(span)
    assert log[0].get("ssd_dma") == 30


def test_faults_are_filed_in_order_and_sparsely():
    log = SpanLog()
    clean = _span()
    faulted = _span()
    faulted.note_fault("media_error")
    faulted.note_fault("host_timeout")
    log.add(clean)
    log.add(faulted)
    assert log[0].faults == []
    assert log[1].faults == ["media_error", "host_timeout"]
    assert log.with_faults == 1


def test_ops_and_origins_are_interned_per_log():
    log = SpanLog()
    for i in range(6):
        log.add(_span(op=("read", "write")[i % 2], origin=f"nvme{i % 3}"))
    assert [row.op for row in log] == ["read", "write"] * 3
    assert [row.origin for row in log] == ["nvme0", "nvme1", "nvme2"] * 2
    assert len(log._names) == 5


def test_capacity_counts_drops_and_clear_resets():
    log = SpanLog(capacity=3)
    for i in range(5):
        log.add(_span(start=i))
    assert len(log) == 3 and log.dropped == 2
    assert [row.get("submit") for row in log] == [0, 1, 2]
    assert log[-1].get("submit") == 2
    with pytest.raises(IndexError):
        log[3]
    log.clear()
    assert len(log) == 0 and log.dropped == 0 and list(log) == []


def test_complete_selects_rows_with_every_canonical_stage():
    log = SpanLog()
    log.add(_span(stages=STAGES))
    log.add(_span(stages=STAGES[:-1]))
    log.add(_span())
    assert [row._row for row in log.complete()] == [0, 2]
    assert [row.is_complete for row in log] == [True, False, True]


def test_row_monotonicity():
    span = _span(stages=("submit", "doorbell"))
    span.stamp("fetch", 5)  # earlier than the doorbell stamp
    log = SpanLog()
    log.add(_span())
    log.add(span)
    assert log[0].is_monotone
    assert not log[1].is_monotone


def test_unknown_stage_rejected():
    span = IOSpan("read")
    with pytest.raises(ValueError, match="unknown span stage"):
        span.stamp("warp_drive", 1)
    assert span.stamps == {}


def test_rows_are_frozen_once_filed():
    """A timed-out attempt may still stamp its span, or note a fault on
    it, after the driver filed it: nothing filed may move."""
    reg = MetricsRegistry()
    span = _span(stages=STAGES[:-1])
    reg.finish_span(span)
    row_before = reg.spans[0].stamps
    hists_before = {key: h.summary()
                    for key, h in reg.histograms("span_stage_ns").items()}
    snap_before = reg.snapshot()

    span.stamp("interrupt", 10_000)  # would now make it complete
    span.stamp("ssd_dma", 9_000)
    span.note_fault("host_timeout")

    assert reg.spans[0].stamps == row_before
    assert reg.spans[0].faults == []
    assert {key: h.summary()
            for key, h in reg.histograms("span_stage_ns").items()} == hists_before
    assert reg.histograms("span_total_ns") == {}
    assert reg.snapshot()["spans"] == snap_before["spans"] == {
        "recorded": 1, "dropped": 0, "complete": 0}


def test_finish_span_feeds_histograms_from_the_filed_walk():
    reg = MetricsRegistry(span_capacity=1)
    for start in (0, 1000):  # the second span is dropped, still measured
        reg.finish_span(_span(start=start, step=7))
    assert len(reg.spans) == 1 and reg.spans.dropped == 1
    hists = reg.histograms("span_stage_ns")
    assert sorted(dict(labels)["stage"] for labels in hists) == sorted(STAMP_ORDER[1:])
    for h in hists.values():
        assert h.count == 2 and h.min == h.max == 7
    assert reg.histograms("span_total_ns")[()].count == 2


def test_full_log_stays_small():
    """Ten thousand filed ten-stage spans keep well under 1.5 MiB: the
    log holds columns of machine ints, not span objects."""
    stages = tuple(s for s in STAMP_ORDER if s != "push_exec")
    assert len(stages) == 10
    reg = MetricsRegistry(span_capacity=10_000)
    reg.finish_span(_span(stages=stages))  # create the histograms first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1, 10_000):
            reg.finish_span(_span(stages=stages, start=i * 1_000_003, step=997 + i % 13))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(reg.spans) == 10_000
    assert kept <= 1.5 * 2**20, f"{kept / 2**20:.2f} MiB kept"


# ------------------------------------------------- property: round trip
_OFFSETS = st.one_of(
    st.integers(-2**34, 2**34),
    st.sampled_from([0, 1, -1, 2**31 - 1, 2**31, -2**31 + 1, -2**31, -2**31 - 1]),
)


@st.composite
def _spans(draw):
    """A span stamping a random subset of stages, maybe without submit;
    times are a large base plus offsets reaching past 32 bits."""
    base = draw(st.integers(0, 2**36))
    span = IOSpan(draw(st.sampled_from(["read", "write", "flush"])),
                  origin=draw(st.sampled_from(["nvme0", "vm1", ""])))
    if draw(st.booleans()):
        span.stamp("submit", base)
    for stage in STAMP_ORDER[1:]:
        if draw(st.booleans()):
            span.stamp(stage, base + draw(_OFFSETS))
    for kind in draw(st.lists(st.sampled_from(["media_error", "host_timeout"]),
                              max_size=2)):
        span.note_fault(kind)
    return span


def _frozen(span):
    """What the log must hand back for ``span`` filed now."""
    return (span.op, span.origin, span.ordered_stamps(), list(span.faults))


def _assert_log_matches(log, kept):
    assert len(log) == len(kept)
    rows = list(log)
    assert len(rows) == len(kept)
    for row, (op, origin, ordered, faults) in zip(rows, kept):
        assert (row.op, row.origin, row.faults) == (op, origin, faults)
        assert row.ordered_stamps() == ordered
        assert row.stamps == dict(ordered)
        stamps = dict(ordered)
        for stage in STAMP_ORDER:
            assert row.get(stage) == stamps.get(stage)
        assert row.is_complete == all(stage in stamps for stage in STAGES)
    complete = [i for i, (_, _, ordered, _) in enumerate(kept)
                if all(stage in dict(ordered) for stage in STAGES)]
    assert [row._row for row in log.complete()] == complete
    assert log.count_complete() == len(complete)
    assert log.with_faults == sum(1 for *_, faults in kept if faults)
    if kept:
        assert log[-1].ordered_stamps() == kept[-1][2]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_spans(), st.just("clear")), max_size=25),
       st.integers(1, 30))
def test_rows_read_back_exactly_as_their_spans(ops, capacity):
    """Any stamp subset, offsets past +/-2**31 (a column widens once) and
    spans without submit (absolute times) read back exactly, through
    complete(), with_faults, clear() and capacity drops."""
    log, kept, dropped = SpanLog(capacity=capacity), [], 0
    for op in ops:
        if op == "clear":
            log.clear()
            kept, dropped = [], 0
        elif log.add(op):
            kept.append(_frozen(op))
            op.stamp("interrupt", 7)  # a late stamp moves nothing filed
            op.note_fault("host_timeout")
        else:
            dropped += 1
        assert log.dropped == dropped
        _assert_log_matches(log, kept)


# ------------------------------------------- property: the stage fold
def _reference_hists(spans):
    """The stage/total histograms as finish_span fed them span by span."""
    hists = {}
    for span in spans:
        for stage, delta in span.stage_deltas():
            hists.setdefault((("stage", stage),), Histogram("span_stage_ns")).observe(delta)
        total = span.total_ns()
        if total is not None:
            hists.setdefault((), Histogram("span_total_ns")).observe(total)
    return hists


def _summaries(reg):
    return {**{k: h.summary() for k, h in reg.histograms("span_stage_ns").items()},
            **{k: h.summary() for k, h in reg.histograms("span_total_ns").items()}}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_spans(), st.sampled_from(["read", "clear"])), max_size=30),
       st.integers(1, 12), st.integers(1, 8))
def test_folded_histograms_equal_per_span_observation(ops, capacity, batch):
    """Reads fold the new rows in at any point, ``batch`` rows per pass;
    a clear folds first and spans past capacity are observed directly:
    every stage's summary() equals feeding each span's deltas as it is
    filed."""
    reg, filed = MetricsRegistry(span_capacity=capacity), []
    reg.spans.FOLD_ROWS = batch
    for op in ops:
        if op == "read":
            reg.snapshot()
        elif op == "clear":
            reg.spans.clear()
        else:
            filed.append(op)
            reg.finish_span(op)
    want = {k: h.summary() for k, h in _reference_hists(filed).items()}
    assert _summaries(reg) == want
    snap = reg.snapshot()["histograms"]
    assert {k for k in snap if k.startswith("span_")} == {
        "span_total_ns" if k == () else f"span_stage_ns{{stage={k[0][1]}}}" for k in want}


def test_every_read_folds_each_row_exactly_once():
    reg = MetricsRegistry(span_capacity=5_000)
    for i in range(5_000):
        reg.finish_span(_span(start=i * 100, step=3 + i % 5))
    hist = reg.histogram("span_stage_ns", stage="doorbell")
    assert hist.count == 5_000 and reg.spans.folded == 5_000
    assert reg.histograms("span_total_ns")[()].count == 5_000
    assert reg.snapshot()["histograms"]["span_stage_ns{stage=doorbell}"]["count"] == 5_000


# ------------------------------------------------------- census
def _log_arrays(log):
    """The machine-int arrays a span log holds, one level deep."""
    found = []
    for value in vars(log).values():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, array) and all(item is not f for f in found):
                found.append(item)
    return found


def _short_rr128(scheme):
    from repro.experiments.common import run_case
    from repro.sim.units import MS
    from repro.workloads.fio import TABLE_IV_CASES

    spec = replace(TABLE_IV_CASES["rand-r-128"], runtime_ns=MS, ramp_ns=MS // 5)
    return run_case(scheme, spec, seed=7, checks="off").obs.spans


def test_log_holds_columns_only_for_stamped_stages():
    """Passthrough stamps submit, ssd_dma and interrupt: its log holds
    three stage arrays.  A BM-Store row costs 8 bytes of submit, 4 per
    other stamped stage and 4 of op/origin codes."""
    log = _short_rr128("passthrough")
    assert len(log) > 0
    stage_arrays = [a for a in _log_arrays(log) if a.typecode != "H"]
    assert len(stage_arrays) == 3

    log = _short_rr128("bmstore")
    stamped = {stage for row in log for stage in row.stamps}
    assert {"submit", *STAGES} <= stamped
    row_bytes = sum(a.itemsize * len(a) for a in _log_arrays(log)) / len(log)
    assert row_bytes <= 8 + 4 * (len(stamped) - 1) + 4
