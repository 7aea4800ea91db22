"""Metrics primitives: counters, gauges, and the log-bucketed
histogram's percentile accuracy against exact quantiles."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.obs import Counter, Histogram, MetricsRegistry


# ------------------------------------------------------------- counters
def test_counter_increments_and_rejects_decrease():
    c = Counter("ops")
    c.inc()
    c.inc(41)
    assert c.value == 42
    with pytest.raises(ValueError):
        c.inc(-1)


def test_registry_get_or_create_is_keyed_by_name_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("ops", ns="vol0")
    b = reg.counter("ops", ns="vol0")
    c = reg.counter("ops", ns="vol1")
    assert a is b and a is not c
    a.inc(3)
    c.inc(1)
    by_label = reg.counters("ops")
    assert by_label[(("ns", "vol0"),)].value == 3
    assert by_label[(("ns", "vol1"),)].value == 1


def test_gauge_tracks_point_in_time_value():
    reg = MetricsRegistry()
    g = reg.gauge("depth", q="0")
    g.add(5)
    g.add(-2)
    assert g.value == 3
    g.set(0)
    assert g.value == 0


# ------------------------------------------------------------ histograms
def _exact_percentile(samples: list[float], p: float) -> float:
    """Nearest-rank exact quantile over the raw samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@pytest.mark.parametrize("dist,params", [
    ("lognormal", (math.log(80_000), 0.4)),   # latency-like, long tail
    ("uniform", (1_000, 1_000_000)),          # flat over three decades
    ("expo", (1 / 50_000,)),                  # heavy near zero
])
def test_percentiles_within_one_bucket_of_exact(dist, params):
    rng = random.Random(1234)
    draw = {
        "lognormal": lambda: rng.lognormvariate(*params),
        "uniform": lambda: rng.uniform(*params),
        "expo": lambda: rng.expovariate(*params),
    }[dist]
    samples = [draw() for _ in range(20_000)]
    hist = Histogram("lat")
    for s in samples:
        hist.observe(s)
    # one bucket is ~4.4% wide, so the estimate (bucket midpoint) stays
    # within the ISSUE's <=7% bound of the exact nearest-rank quantile
    for p in (50, 95, 99, 99.9):
        exact = _exact_percentile(samples, p)
        assert hist.percentile(p) == pytest.approx(exact, rel=0.07), (dist, p)


def test_histogram_percentile_properties_match_query():
    hist = Histogram("lat")
    for v in (10, 20, 30, 40, 50):
        hist.observe(v)
    assert hist.p50 == hist.percentile(50)
    assert hist.p99 == hist.percentile(99)
    assert hist.p999 == hist.percentile(99.9)


def test_histogram_min_max_mean_are_exact():
    hist = Histogram("lat")
    for v in (5, 15, 100):
        hist.observe(v)
    assert hist.min == 5
    assert hist.max == 100
    assert hist.mean == pytest.approx(40.0)
    assert hist.count == 3


def test_histogram_zero_observations_land_in_zero_bucket():
    hist = Histogram("lat")
    for _ in range(99):
        hist.observe(0)
    hist.observe(1_000_000)
    assert hist.p50 == 0.0
    assert hist.percentile(100) == pytest.approx(1_000_000, rel=0.05)


def test_empty_histogram_is_all_zero():
    hist = Histogram("lat")
    assert hist.p50 == 0.0 and hist.mean == 0.0
    assert hist.min == 0.0 and hist.max == 0.0


def test_percentile_range_is_validated():
    hist = Histogram("lat")
    hist.observe(1)
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        hist.percentile(-1)


# -------------------------------------------------------------- snapshot
def test_snapshot_is_json_shaped_and_complete():
    import json

    reg = MetricsRegistry()
    reg.counter("ops", ns="vol0").inc(7)
    reg.gauge("depth").set(2)
    reg.histogram("lat", stage="fetch").observe(123)
    snap = reg.snapshot()
    json.dumps(snap)  # must be serializable as-is
    assert snap["counters"]["ops{ns=vol0}"] == 7
    assert snap["gauges"]["depth"] == 2
    assert snap["histograms"]["lat{stage=fetch}"]["count"] == 1
    assert snap["spans"] == {"recorded": 0, "dropped": 0, "complete": 0}


def test_render_table_mentions_every_metric():
    reg = MetricsRegistry()
    reg.counter("ops").inc()
    reg.histogram("lat").observe(10)
    text = reg.render_table()
    assert "ops" in text and "lat" in text and "spans:" in text


@given(st.lists(st.lists(st.one_of(st.integers(-10**6, 10**12), st.just(0),
                                   st.integers(1, 50)), max_size=40), max_size=5))
def test_observe_many_is_exactly_per_value_observe(batches):
    one, many = Histogram("a"), Histogram("b")
    for batch in batches:
        for value in batch:
            one.observe(value)
        many.observe_many(batch)
        assert (many.count, many.total, many._min, many._max, many._zeros) == (
            one.count, one.total, one._min, one._max, one._zeros)
        assert many._buckets == one._buckets
        assert many.summary() == one.summary()
