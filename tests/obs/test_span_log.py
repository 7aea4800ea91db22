"""The columnar span log: rows round-trip every field of a filed span,
stay frozen once filed, and a full log stays small."""

import tracemalloc

import pytest

from repro.obs import STAGES, IOSpan, MetricsRegistry, SpanLog
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
