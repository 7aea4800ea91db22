"""The declarative scheme registry and the tables derived from it."""

import pytest

from repro.baselines.features import feature_matrix
from repro.baselines.registry import (
    INTERPOSITION_LEVELS,
    SCHEME_DEFS,
    SchemeDef,
    runnable_schemes,
    scheme_def,
    table1_schemes,
)


def test_runner_map_covers_exactly_the_runnable_entries():
    from repro.experiments.common import SCHEMES as RUNNERS

    assert set(RUNNERS) == set(runnable_schemes())


def test_every_def_is_runnable_or_a_table1_row():
    for d in SCHEME_DEFS:
        assert d.runnable or d.table1


def test_table1_rows_derive_from_the_registry():
    assert list(feature_matrix()) == list(table1_schemes())


def test_passthrough_capabilities():
    d = scheme_def("passthrough")
    assert d.interposition == "doorbell"
    assert not d.qos_seam  # no per-command interposition, no QoS gate
    assert "hot_remove" in d.fault_seams
    assert set(d.dma_models) == {"register", "descriptor"}
    assert d.out_of_band_management


def test_bmstore_capabilities():
    d = scheme_def("bmstore")
    assert d.interposition == "full"
    assert d.qos_seam
    assert "descriptor" in d.dma_models


def test_spdk_honours_only_the_immediate_doorbell():
    assert scheme_def("spdk-vm").doorbell_modes == ("immediate",)


def test_scheme_def_rejects_unknown_keys():
    with pytest.raises(KeyError):
        scheme_def("no-such-scheme")


def test_def_validation():
    with pytest.raises(ValueError, match="interposition"):
        SchemeDef(key="x", title=None, interposition="telepathy")
    with pytest.raises(ValueError, match="runnable key or"):
        SchemeDef(key=None, title=None)
    assert "doorbell" in INTERPOSITION_LEVELS
