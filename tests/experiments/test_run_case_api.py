"""The scheme-runner API: the SCHEMES registry, run_case, CaseResult,
and table() column union."""

import pytest

from repro.experiments.common import (
    SCHEMES,
    CaseResult,
    ExperimentResult,
    quick_cases,
    run_case,
)
from repro.obs import MetricsRegistry
from repro.sim.units import MS
from repro.workloads.fio import FioResult, FioSpec


def _tiny_spec():
    return FioSpec("api-probe", "randread", 4096, iodepth=4, numjobs=1,
                   runtime_ns=2 * MS, ramp_ns=MS // 2)


# ------------------------------------------------------------- the registry
def test_schemes_registry_names():
    assert set(SCHEMES) == {
        "native", "bmstore", "passthrough", "vfio-vm", "bmstore-vm",
        "spdk-vm",
    }


def test_run_case_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="bmstore"):
        run_case("no-such-scheme", _tiny_spec())


def test_run_case_returns_bundled_case_result():
    case = run_case("bmstore", _tiny_spec(), seed=11)
    assert isinstance(case, CaseResult)
    assert case.scheme == "bmstore"
    assert isinstance(case.fio, FioResult)
    assert isinstance(case.obs, MetricsRegistry)
    assert case.fio.ios > 0
    # convenience properties delegate to the fio measurement
    assert case.iops == case.fio.iops
    assert case.avg_latency_us == case.fio.avg_latency_us
    assert case.latency is case.fio.latency
    # the snapshot is taken from the same registry
    assert case.snapshot["spans"]["recorded"] == len(case.obs.spans)


def test_run_case_uses_caller_registry_when_given():
    obs = MetricsRegistry()
    case = run_case("bmstore", _tiny_spec(), seed=11, obs=obs)
    assert case.obs is obs
    assert len(obs.spans) > 0


def test_run_case_is_deterministic_per_seed():
    a = run_case("native", _tiny_spec(), seed=5)
    b = run_case("native", _tiny_spec(), seed=5)
    assert a.fio.ios == b.fio.ios
    assert a.avg_latency_us == b.avg_latency_us


# ----------------------------------------------------------- table() union
def test_table_renders_union_of_keys_in_first_seen_order():
    res = ExperimentResult("x", "ragged rows")
    res.add(case="a", kiops=1.0)
    res.add(case="b", kiops=2.0, extra="late-column")
    text = res.table()
    header = text.splitlines()[1]
    assert header.index("case") < header.index("kiops") < header.index("extra")
    # both rows render; the missing cell shows as None, not a crash
    assert "late-column" in text
    assert "None" in text


def test_quick_cases_reject_unknown_name():
    with pytest.raises(KeyError):
        quick_cases(["definitely-not-a-case"])
