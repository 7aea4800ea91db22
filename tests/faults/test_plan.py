"""FaultPlan / FaultSpec / DriverFaultPolicy: pure-data layer."""

from dataclasses import replace

import pytest

from repro.experiments.fig8_table5 import case_latency_ns
from repro.faults import (
    FAULT_KINDS,
    DriverFaultPolicy,
    FaultPlan,
    FaultSpec,
    get_preset,
    PRESETS,
)
from repro.nvme.spec import StatusCode
from repro.sim.units import ms


def test_builders_chain_and_accumulate():
    plan = (FaultPlan()
            .media_error("bssd0", at_ns=ms(10), count=2, op="read")
            .die_stall("bssd0", at_ns=ms(5), duration_ns=ms(3))
            .cmd_drop(at_ns=ms(1), count=1)
            .link_flap("bssd0", at_ns=ms(2))
            .width_degrade("bssd0", at_ns=ms(2), lanes=2)
            .firmware_stall("bssd0", extra_ns=ms(100))
            .engine_stall(at_ns=ms(4))
            .hot_remove(0, at_ns=ms(6), reattach_after_ns=ms(2)))
    assert len(plan) == 8
    assert plan.kinds() == set(FAULT_KINDS)
    # hot_remove keeps the slot id as a string target + re-seat delay
    hr = [s for s in plan if s.kind == "hot_remove"][0]
    assert hr.target == "0" and hr.duration_ns == ms(2)


def test_describe_is_json_able_and_time_sorted():
    plan = (FaultPlan()
            .link_flap("p0", at_ns=ms(20))
            .media_error("s0", at_ns=ms(10)))
    desc = plan.describe()
    assert [d["kind"] for d in desc] == ["media_error", "link_flap"]
    assert all(isinstance(d, dict) for d in desc)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("meteor_strike")


def test_negative_times_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        FaultSpec("media_error", at_ns=-1)


def test_driver_policy_defaults_retry_hotplug_statuses():
    policy = DriverFaultPolicy()
    assert int(StatusCode.NAMESPACE_NOT_READY) in policy.retryable
    assert int(StatusCode.ABORTED_BY_REQUEST) in policy.retryable


def test_with_driver_policy_attaches_policy():
    plan = FaultPlan().with_driver_policy(timeout_ns=ms(3), max_retries=2)
    assert plan.driver_policy.timeout_ns == ms(3)
    assert plan.driver_policy.max_retries == 2
    assert len(plan) == 0  # a policy alone schedules nothing


def test_presets_build_fresh_plans():
    for name in PRESETS:
        plan = get_preset(name)
        assert isinstance(plan, FaultPlan)
        assert len(plan) >= 1
    assert get_preset("cmd-drop") is not get_preset("cmd-drop")


def test_preset_timeouts_scale_only_past_their_fixed_floor():
    rand = case_latency_ns("rand-r-128")
    seq = case_latency_ns("seq-w-256")
    for name in PRESETS:
        fixed = get_preset(name).driver_policy
        if fixed is None:
            assert get_preset(name, seq).driver_policy is None
            continue
        assert get_preset(name, rand).driver_policy == fixed
        scaled = get_preset(name, seq).driver_policy
        assert scaled.timeout_ns >= ms(190)
        assert scaled == replace(fixed, timeout_ns=scaled.timeout_ns)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown fault preset"):
        get_preset("gamma-ray")
