"""Observability layer: metrics registry + I/O-path span tracing.

The paper's BMS-Controller ships an out-of-band I/O monitor, and the
evaluation leans on per-stage latency breakdowns of the seven-step
datapath (Fig. 6) and tail-latency timelines.  This package is that
measurement substrate for the reproduction:

* :class:`MetricsRegistry` — counters, gauges, and log-bucketed
  latency histograms with p50/p95/p99/p99.9 queries, labeled per
  namespace / per queue / per driver.
* :class:`IOSpan` / :class:`SpanLog` — each NVMe command carries a
  span that stamps the Fig. 6 stages as it moves driver -> SR-IOV
  doorbell -> target-controller fetch -> LBA map -> SSD DMA ->
  completion -> interrupt; a finished span is filed as one frozen row
  of the log's per-stage columns.

Every simulator starts with its own counters-only registry; attach
another to any rig (``build_bmstore(obs=reg)``) or let
:func:`repro.experiments.run_case` create one per run; read it back as
tables (:meth:`MetricsRegistry.render_table`) or JSON
(:meth:`MetricsRegistry.snapshot`), in-band via the experiment result
or out-of-band through the BMS-Controller's I/O monitor.
"""

from .._lazy import lazy_exports

__all__ = [
    "OBS_MODES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullHistogram",
    "STAGES",
    "IOSpan",
    "SpanLog",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "metrics": (
        "OBS_MODES", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "NullHistogram",
    ),
    "spans": ("STAGES", "IOSpan", "SpanLog"),
})
