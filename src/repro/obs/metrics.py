"""Metrics primitives: counters, gauges, log-bucketed histograms.

The registry is deliberately simulation-agnostic: values are plain
numbers (the callers stamp simulated nanoseconds).  Histograms use
geometric buckets with 16 sub-buckets per octave (~4.4% wide), so any
percentile estimate is within one bucket — well under the ±7% the
experiment assertions allow — while an entire latency distribution
costs a handful of dict entries instead of a sample list.
"""

from __future__ import annotations

import collections
import math
from typing import Any, Iterator, Optional

from .spans import IOSpan, SpanLog

__all__ = ["Counter", "Gauge", "Histogram", "NullHistogram", "MetricsRegistry",
           "OBS_MODES"]

#: supported observability modes, cheapest last
OBS_MODES = ("full", "sampled", "counters")

#: sub-buckets per octave; bucket boundary ratio = 2**(1/16) ~ 1.0443
BUCKETS_PER_OCTAVE = 16
_LOG_GROWTH = math.log(2.0) / BUCKETS_PER_OCTAVE


def _labels_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_name(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (ops, bytes, errors...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, buffered commands...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """A log-bucketed distribution with percentile queries.

    ``observe`` costs one dict update; ``percentile`` walks the sorted
    buckets and returns the geometric midpoint of the bucket holding
    the requested rank (max error: half a bucket, ~2.2%).
    """

    __slots__ = ("name", "labels", "_buckets", "_zeros", "count", "total", "_min", "_max")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._buckets: dict[int, int] = {}
        self._zeros = 0  # observations <= 0 (zero-latency fast paths)
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value <= 0:
            self._zeros += 1
            return
        idx = int(math.floor(math.log(value) / _LOG_GROWTH))
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def observe_many(self, values: list[int]) -> None:
        """``observe`` each of ``values``, batched: the same buckets,
        count, min and max, and the same ``total`` as long as every
        partial sum is an integer below 2**53 (sim-ns durations are)."""
        if not values:
            return
        self.count += len(values)
        self.total += sum(values)
        lo, hi = min(values), max(values)
        if self._min is None or lo < self._min:
            self._min = lo
        if self._max is None or hi > self._max:
            self._max = hi
        buckets = self._buckets
        for value, n in collections.Counter(values).items():
            if value <= 0:
                self._zeros += n
                continue
            idx = int(math.floor(math.log(value) / _LOG_GROWTH))
            buckets[idx] = buckets.get(idx, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    def percentile(self, p: float) -> float:
        """Estimated value at percentile ``p`` (0..100], nearest-rank."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} out of range")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * self.count))
        seen = self._zeros
        if rank <= seen:
            return 0.0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if rank <= seen:
                # geometric midpoint of [growth**idx, growth**(idx+1))
                return math.exp((idx + 0.5) * _LOG_GROWTH)
        return self.max  # pragma: no cover - unreachable

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "p99.9": self.p999,
            "max": self.max,
        }


class NullHistogram:
    """Observation sink for counters-only mode: same read API as
    :class:`Histogram`, but ``observe`` is a no-op and every statistic
    reads as zero."""

    __slots__ = ("name", "labels")

    count = 0
    total = 0.0
    mean = min = max = p50 = p95 = p99 = p999 = 0.0

    def __init__(self, name: str = "", labels: tuple = ()):
        self.name = name
        self.labels = labels

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def summary(self) -> dict[str, float]:
        return {"count": 0, "mean": 0.0, "min": 0.0, "p50": 0.0, "p95": 0.0,
                "p99": 0.0, "p99.9": 0.0, "max": 0.0}


_NULL_HISTOGRAM = NullHistogram()

#: the histograms folded from the span log (see MetricsRegistry._fold_spans)
_SPAN_HISTOGRAMS = ("span_stage_ns", "span_total_ns")


class MetricsRegistry:
    """Get-or-create store of named, labeled metrics + the span log.

    One registry measures one run (one simulated world): rigs and the
    datapath layers all write into the same instance, so a snapshot is
    the complete observability picture of that world.

    ``mode`` selects how much the instrumentation taxes the hot path:

    * ``"full"`` (default) — every command carries an :class:`IOSpan`
      and feeds the stage histograms.  Those (``span_stage_ns`` and
      ``span_total_ns``) are folded from the span log's columns
      whenever the registry is read, so filing a span is one row
      append; a span the log drops past its capacity is observed
      directly, after every filed row.
    * ``"sampled"`` — only one in ``span_sample`` commands carries a
      span (deterministic modulo counter, so runs stay reproducible);
      histograms still record everything they are handed.
    * ``"counters"`` — no spans at all, and ``histogram()`` hands back
      a shared :class:`NullHistogram`, so per-event instrumentation
      reduces to integer counter bumps.
    """

    def __init__(self, span_capacity: int = 10_000, mode: str = "full",
                 span_sample: int = 16):
        if mode not in OBS_MODES:
            raise ValueError(f"unknown obs mode {mode!r} (known: {OBS_MODES})")
        if span_sample < 1:
            raise ValueError(f"span_sample must be >= 1, got {span_sample}")
        self._metrics: dict[tuple[str, str, tuple], Any] = {}
        self.spans = SpanLog(capacity=span_capacity)
        self.spans.on_clear = self._fold_spans
        self.mode = mode
        self.span_sample = 1 if mode == "full" else span_sample
        self._span_tick = 0
        # span-stage histogram handles, resolved once per stage name
        self._stage_hists: dict[str, Histogram] = {}
        self._h_span_total: Optional[Histogram] = None

    def want_span(self) -> bool:
        """Should the caller allocate an IOSpan for the next command?

        Deterministic: the decision depends only on how many commands
        asked before, never on wall time."""
        if self.mode == "counters":
            return False
        if self.span_sample == 1:
            return True
        self._span_tick += 1
        return self._span_tick % self.span_sample == 1

    # ------------------------------------------------------------- factories
    def _get(self, kind: str, cls, name: str, labels: dict[str, str]):
        key = (kind, name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[2])
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        if self.mode == "counters":
            return _NULL_HISTOGRAM
        if name in _SPAN_HISTOGRAMS:
            self._fold_spans()
        return self._get("histogram", Histogram, name, labels)

    # ----------------------------------------------------------------- spans
    def finish_span(self, span: IOSpan) -> None:
        """File a completed span: log its row and count its faults.

        The span is read once, here; later stamps on it (a timed-out
        attempt still executing on the drive) change nothing filed.
        Its stage histograms are fed at the next read of the registry
        (:meth:`_fold_spans`), or now if the log is full."""
        if self.mode == "counters":
            return
        for kind in span.faults:
            self.counter("span_faults", kind=kind).inc()
        if self.spans.add(span):
            return
        self._fold_spans()
        hists, last = self._stage_hists, None
        for stage, t in span.ordered_stamps():
            if last is not None:
                (hists.get(stage) or self._stage_hist(stage)).observe(t - last)
            last = t
        total = span.total_ns()
        if total is not None:
            self._total_hist().observe(total)

    def _stage_hist(self, stage: str) -> Histogram:
        h = self._stage_hists.get(stage)
        if h is None:
            h = self._stage_hists[stage] = self._get(
                "histogram", Histogram, "span_stage_ns", {"stage": stage})
        return h

    def _total_hist(self) -> Histogram:
        if self._h_span_total is None:
            self._h_span_total = self._get("histogram", Histogram, "span_total_ns", {})
        return self._h_span_total

    def _fold_spans(self) -> None:
        """Feed the stage histograms every span row filed since the
        last fold, in row order: the same observations ``finish_span``
        would have made per span, one batch per stage column."""
        if self.spans.folded == len(self.spans):
            return
        for stages, totals in self.spans.fold():
            for stage, deltas in stages:
                self._stage_hist(stage).observe_many(deltas)
            if totals:
                self._total_hist().observe_many(totals)

    # ------------------------------------------------------------- inspection
    def iter_metrics(self) -> Iterator[tuple[str, str, Any]]:
        """Yields (kind, formatted_name, metric) sorted by kind then name."""
        self._fold_spans()
        for (kind, name, labels), metric in sorted(
            self._metrics.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
        ):
            yield kind, _format_name(name, labels), metric

    def counters(self, name: str) -> dict[tuple[tuple[str, str], ...], Counter]:
        """All counters of one name, keyed by their label tuples."""
        return {
            key[2]: metric
            for key, metric in self._metrics.items()
            if key[0] == "counter" and key[1] == name
        }

    def histograms(self, name: str) -> dict[tuple[tuple[str, str], ...], Histogram]:
        """All histograms of one name, keyed by their label tuples."""
        if name in _SPAN_HISTOGRAMS:
            self._fold_spans()
        return {
            key[2]: metric
            for key, metric in self._metrics.items()
            if key[0] == "histogram" and key[1] == name
        }

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable dump of every metric + span accounting."""
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for kind, label, metric in self.iter_metrics():
            if kind == "counter":
                # checker coverage is meta-observability (read it via
                # CheckContext.summary()); keeping it out of snapshots
                # keeps checked runs byte-identical to unchecked runs
                if label.startswith("invariant_checks"):
                    continue
                out["counters"][label] = metric.value
            elif kind == "gauge":
                out["gauges"][label] = metric.value
            else:
                out["histograms"][label] = metric.summary()
        spans = self.spans
        out["spans"] = {
            "recorded": len(spans),
            "dropped": spans.dropped,
            "complete": spans.count_complete(),
        }
        # only present when faults were injected, so fault-free snapshots
        # stay byte-identical to pre-fault-layer output
        if spans.with_faults:
            out["spans"]["with_faults"] = spans.with_faults
        # likewise: default-mode snapshots keep their historical shape
        if self.mode != "full":
            out["obs_mode"] = self.mode
            if self.mode == "sampled":
                out["span_sample"] = self.span_sample
        return out

    def render_table(self) -> str:
        """Human-readable dump (the ``repro stats`` default output)."""
        lines = []
        snap = self.snapshot()
        if snap["counters"]:
            lines.append("counters:")
            width = max(len(k) for k in snap["counters"])
            for key, value in snap["counters"].items():
                lines.append(f"  {key.ljust(width)}  {value}")
        if snap["gauges"]:
            lines.append("gauges:")
            width = max(len(k) for k in snap["gauges"])
            for key, value in snap["gauges"].items():
                lines.append(f"  {key.ljust(width)}  {value:g}")
        if snap["histograms"]:
            lines.append("histograms (ns):")
            width = max(len(k) for k in snap["histograms"])
            header = f"  {'name'.ljust(width)}  {'count':>7} {'mean':>10} {'p50':>10} {'p99':>10} {'p99.9':>10} {'max':>10}"
            lines.append(header)
            for key, s in snap["histograms"].items():
                lines.append(
                    f"  {key.ljust(width)}  {s['count']:>7} {s['mean']:>10.0f} "
                    f"{s['p50']:>10.0f} {s['p99']:>10.0f} {s['p99.9']:>10.0f} {s['max']:>10.0f}"
                )
        spans = snap["spans"]
        lines.append(
            f"spans: {spans['recorded']} recorded "
            f"({spans['complete']} complete, {spans['dropped']} dropped)"
        )
        return "\n".join(lines)
