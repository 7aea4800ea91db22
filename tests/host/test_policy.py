"""The SubmissionPolicy value object: parsing, validation, presets."""

import pytest

from repro.host.policy import (
    DEFAULT_POLICY,
    DMA_MODELS,
    DOORBELL_MODES,
    POLICY_PRESETS,
    SubmissionPolicy,
    parse_policy,
    resolve_policy,
)
from repro.sim import SimulationError


# ------------------------------------------------------------- validation
def test_default_policy_is_the_classic_path():
    assert DEFAULT_POLICY.doorbell == "immediate"
    assert DEFAULT_POLICY.coalesce_threshold == 1
    assert DEFAULT_POLICY.coalesce_timeout_ns == 0
    assert DEFAULT_POLICY.dma == "register"
    assert not DEFAULT_POLICY.coalescing
    assert DEFAULT_POLICY.is_default


@pytest.mark.parametrize("bad", [
    dict(doorbell="polled"),
    dict(dma="rdma"),
    dict(batch_depth=0),
    dict(batch_timeout_ns=-1),
    dict(coalesce_timeout_ns=-1),
    dict(coalesce_threshold=0),
    # a threshold with no timer would strand the tail of a shallow queue
    dict(coalesce_threshold=4, coalesce_timeout_ns=0),
])
def test_invalid_policies_rejected(bad):
    with pytest.raises(SimulationError):
        SubmissionPolicy(**bad)


def test_policy_is_frozen_and_hashable():
    p = SubmissionPolicy(doorbell="shadow")
    with pytest.raises(Exception):
        p.doorbell = "batched"
    assert p in {p}


# ---------------------------------------------------------------- parsing
def test_parse_preset_names():
    for name, policy in POLICY_PRESETS.items():
        assert parse_policy(name) == policy


def test_parse_bare_doorbell_modes():
    for mode in DOORBELL_MODES:
        # "batched" is both a preset and a mode; they must agree
        assert parse_policy(mode).doorbell == mode


def test_parse_mode_with_batch_depth():
    p = parse_policy("batched:16")
    assert p.doorbell == "batched"
    assert p.batch_depth == 16


def test_parse_key_value_list():
    p = parse_policy(
        "doorbell=shadow,coalesce=4,coalesce_timeout_ns=8000,dma=descriptor"
    )
    assert p == SubmissionPolicy(doorbell="shadow", coalesce_threshold=4,
                                 coalesce_timeout_ns=8_000, dma="descriptor")


def test_parse_empty_string_is_default():
    assert parse_policy("") is DEFAULT_POLICY


@pytest.mark.parametrize("bad", [
    "warp-speed",
    "batched:lots",
    "polled:4",
    "doorbell=",
    "speed=11",
    "batch=x",
    "coalesce=4",  # valid syntax, invalid policy (no timer)
])
def test_parse_rejects_bad_spellings(bad):
    with pytest.raises(ValueError):
        parse_policy(bad)


def test_spell_round_trips():
    for policy in POLICY_PRESETS.values():
        assert parse_policy(policy.spell()) == policy
    extra = SubmissionPolicy(doorbell="batched", batch_depth=32,
                             batch_timeout_ns=5_000, coalesce_threshold=8,
                             coalesce_timeout_ns=2_000, dma="descriptor")
    assert parse_policy(extra.spell()) == extra


def test_resolve_policy_types():
    p = SubmissionPolicy(doorbell="shadow")
    assert resolve_policy(None) is None
    assert resolve_policy(p) is p
    assert resolve_policy("shadow") == p
    with pytest.raises(TypeError):
        resolve_policy(42)

