#!/usr/bin/env python3
"""Quickstart: bring up BM-Store, provision a tenant disk out of band,
and run I/O against it.

This walks the full paper architecture in ~40 lines of user code:

1. build a host with a BM-Store card and four NVMe drives behind it
2. the *remote console* (MCTP over PCIe -> BMS-Controller) creates a
   namespace and binds it to an SR-IOV virtual function — the host OS
   is never involved
3. the unmodified host NVMe driver binds the VF like any disk
4. fio-style load runs; the I/O monitor is read back out of band

Run:  python3 examples/quickstart.py
"""

from repro.baselines import build_bmstore
from repro.host import NVMeDriver
from repro.obs import MetricsRegistry
from repro.sim.units import GIB, MS
from repro.workloads import FioSpec, run_fio


def main() -> None:
    # 1. the rig: host + BMS-Engine/BMS-Controller card + 4 x P4510,
    #    with a metrics registry attached (the paper's I/O monitor)
    obs = MetricsRegistry()
    rig = build_bmstore(num_ssds=4, obs=obs)
    sim, console = rig.sim, rig.console

    # 2. out-of-band provisioning: 256 GiB namespace -> VF 5
    def provision():
        resp = yield console.create_namespace("tenant-disk", 256 * GIB)
        assert resp.ok, resp.body
        resp = yield console.bind_namespace("tenant-disk", fn=5)
        assert resp.ok, resp.body
        print("provisioned 256 GiB namespace on VF 5 (no host involvement)")

    sim.run(sim.process(provision()))

    # 3. the tenant's standard NVMe driver binds the VF
    fn = rig.engine.sriov.function_by_id(5)
    driver = NVMeDriver(rig.host, fn, name="tenant-nvme")
    print(f"bound {fn!r}: {driver.num_blocks * 4096 / GIB:.0f} GiB")

    # 4. run 4K random read, qd 32 x 4 jobs
    spec = FioSpec("demo", "randread", 4096, iodepth=32, numjobs=4,
                   runtime_ns=20 * MS, ramp_ns=2 * MS)
    result = run_fio(sim, [driver], spec, rig.streams)
    print(f"fio {spec.op}: {result.iops / 1000:.0f} KIOPS, "
          f"avg latency {result.avg_latency_us:.1f} us")

    # 5. the vendor reads the I/O monitor out of band
    def monitor():
        resp = yield console.io_stats(fn=5)
        print(f"I/O monitor (via MCTP/NVMe-MI): {resp.body}")
        resp = yield console.health()
        print(f"fleet health: {resp.body['num_ssds']} drives, "
              f"{resp.body['total_ios']} total I/Os")
        resp = yield console.io_monitor()
        ns_ops = {k: v for k, v in resp.body["counters"].items()
                  if k.startswith("ns_ops")}
        print(f"per-namespace ops (metrics snapshot): {ns_ops}")

    sim.run(sim.process(monitor()))

    # 6. the same registry holds full Fig. 6 spans: per-stage latency
    lat = obs.histograms("span_total_ns").get(())
    if lat is not None and lat.count:
        print(f"span latency (submit->interrupt): p50 {lat.p50 / 1e3:.1f} us, "
              f"p99 {lat.p99 / 1e3:.1f} us over {lat.count} spans")


if __name__ == "__main__":
    main()
