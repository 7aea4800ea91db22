"""The I/O-queue passthrough scheme: guest rings mapped straight onto
the backend drive, with device-side DMA/LBA translation."""

import pytest

from repro.baselines import build_bmstore
from repro.experiments.common import run_case
from repro.faults import get_preset
from repro.sim import SimulationError
from repro.sim.units import MS
from repro.workloads.fio import FioSpec


def _spec(iodepth=4, runtime_ms=3):
    return FioSpec("pt-probe", "randread", 4096, iodepth=iodepth, numjobs=1,
                   runtime_ns=runtime_ms * MS, ramp_ns=MS)


# ------------------------------------------------------------ basic running
def test_passthrough_scheme_runs_clean():
    case = run_case("passthrough", _spec(), seed=7)
    assert case.fio.ios > 0
    assert case.errors == 0


def test_passthrough_is_deterministic():
    a = run_case("passthrough", _spec(), seed=5)
    b = run_case("passthrough", _spec(), seed=5)
    assert a.fio.ios == b.fio.ios
    assert a.fio.sim_events == b.fio.sim_events
    assert a.avg_latency_us == b.avg_latency_us


def test_passthrough_beats_bmstore_at_high_iodepth():
    spec = _spec(iodepth=128, runtime_ms=10)
    bms = run_case("bmstore", spec, seed=7)
    pt = run_case("passthrough", spec, seed=7)
    # no per-command interposition: fewer kernel events per I/O, at
    # least matching throughput, and a lower tail
    assert pt.fio.sim_events < bms.fio.sim_events
    assert pt.fio.ios >= bms.fio.ios
    assert pt.latency.p99_us <= bms.latency.p99_us


def test_passthrough_datapath_checkers_have_coverage():
    case = run_case("passthrough", _spec(), seed=7, checks="all")
    cov = case.checks.summary()
    for name in ("ring", "prp", "lba", "kernel"):
        assert cov[name] > 0, f"{name} checker silent on the passthrough path"


# ---------------------------------------------------- translation semantics
def test_passthrough_translates_lbas_and_isolates_namespaces():
    rig = build_bmstore(num_ssds=1)
    chunk = rig.engine.chunk_bytes
    rig.provision("front", chunk)          # takes physical chunk 0
    fn = rig.provision("pt", chunk)        # takes physical chunk 1
    rig.engine.passthrough_mode().enable("pt")
    driver = rig.baremetal_driver(fn)
    marker = b"passthrough block 5"
    payload = marker.ljust(4096, b"\0")

    def flow():
        info = yield driver.write(5, 1, payload=payload)
        assert info.ok
        info = yield driver.read(5, 1, want_data=True)
        assert info.ok
        return info.data

    data = rig.sim.run(rig.sim.process(flow()))
    assert data[: len(marker)] == marker
    # the device stored it at the translated physical LBA...
    offset = rig.engine.chunk_blocks
    stored = rig.ssds[0].block_data(offset + 5)
    assert stored is not None and stored[: len(marker)] == marker
    # ...and the first namespace's physical extent was never touched
    assert rig.ssds[0].block_data(5) is None


def test_passthrough_bounds_guest_lbas_to_the_namespace():
    rig = build_bmstore(num_ssds=1)
    fn = rig.provision("pt", rig.engine.chunk_bytes)
    rig.engine.passthrough_mode().enable("pt")
    driver = rig.baremetal_driver(fn)

    def flow():
        last = driver.num_blocks - 1
        info = yield driver.read(last, 1)
        assert info.ok
        info = yield driver.read(last, 2)  # crosses the translation window
        return info

    info = rig.sim.run(rig.sim.process(flow()))
    assert not info.ok


# ------------------------------------------------------------- eligibility
def test_passthrough_rejects_multi_ssd_namespaces():
    rig = build_bmstore(num_ssds=2)
    rig.provision("wide", 2 * rig.engine.chunk_bytes, placement=[0, 1])
    with pytest.raises(SimulationError, match="single-SSD"):
        rig.engine.passthrough_mode().enable("wide")


def test_passthrough_rejects_fragmented_extents():
    rig = build_bmstore(num_ssds=1)
    chunk = rig.engine.chunk_bytes
    rig.provision("a", chunk, fn_id=5)     # physical chunk 0
    rig.provision("b", chunk, fn_id=6)     # physical chunk 1
    rig.engine.delete_namespace("a")       # chunk 0 returns to the tail
    nfree = len(rig.engine._free_chunks[0])
    # taking the whole free list wraps around to the recycled chunk 0,
    # so the extent ends ..., N-1, 0 — contiguous it is not
    rig.provision("frag", nfree * chunk, fn_id=7, placement=[0] * nfree)
    with pytest.raises(SimulationError, match="contiguous"):
        rig.engine.passthrough_mode().enable("frag")


def test_passthrough_requires_a_bound_function():
    rig = build_bmstore(num_ssds=1)
    rig.engine.create_namespace("loose", rig.engine.chunk_bytes)
    with pytest.raises(SimulationError, match="bound"):
        rig.engine.passthrough_mode().enable("loose")


# ------------------------------------------------------------ hot removal
def test_surprise_hot_removal_recovers_under_passthrough_at_high_iodepth():
    """ISSUE 6 regression: with no interposition point, the driver's
    timeout -> Abort -> retry policy is the only safety net when the
    backend drive is yanked mid-flight at qd128."""
    spec = FioSpec("pt-yank", "randread", 4096, iodepth=128, numjobs=1,
                   runtime_ns=30 * MS, ramp_ns=2 * MS)
    case = run_case("passthrough", spec, seed=7,
                    faults=get_preset("pt-hot-remove"))
    def total(prefix):
        return sum(metric.value
                   for kind, label, metric in case.obs.iter_metrics()
                   if kind == "counter" and label.startswith(prefix))

    # the outage stranded in-flight commands; the driver timed out,
    # aborted, and re-drove them after the re-seat
    assert total("driver_timeouts") > 0
    assert total("driver_retries{") > 0
    assert total("driver_aborts") > 0
    # the workload survived the yank and kept completing afterwards
    assert case.fio.ios > 1000
    assert case.errors < case.fio.ios


def test_ring_full_during_outage_blocks_instead_of_overflowing():
    """Timed-out commands release their queue slot while their stale
    SQEs still occupy the ring; with four jobs at qd128 one timeout
    round used to overflow the 1024-deep SQ (nothing fetches during a
    passthrough outage).  Submission must block for ring space, like a
    real driver, and drain once the re-seated drive starts fetching."""
    spec = FioSpec("pt-yank-wide", "randread", 4096, iodepth=128, numjobs=4,
                   runtime_ns=20 * MS, ramp_ns=2 * MS)
    case = run_case("passthrough", spec, seed=7,
                    faults=get_preset("pt-hot-remove"))
    assert case.errors == 0
    assert case.fio.ios > 1000


def test_hot_removal_recovery_is_deterministic():
    spec = FioSpec("pt-yank", "randread", 4096, iodepth=64, numjobs=1,
                   runtime_ns=25 * MS, ramp_ns=2 * MS)
    runs = [run_case("passthrough", spec, seed=9,
                     faults=get_preset("pt-hot-remove")) for _ in range(2)]
    assert runs[0].fio.ios == runs[1].fio.ios
    assert runs[0].fio.sim_events == runs[1].fio.sim_events
