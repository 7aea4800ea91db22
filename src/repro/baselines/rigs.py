"""Rig builders: one-call construction of every storage scheme.

Tests, benchmarks, and examples all build their worlds through these,
so every experiment compares schemes on identical substrates (same
host, same drives, same kernel profile, same random streams).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..checks.resolve import resolve_checks
from ..core.controller import BMSController, ControllerTimings
from ..core.engine import BMSEngine, EngineTimings
from ..faults.plan import DriverFaultPolicy, FaultPlan
from ..core.qos import QoSLimits
from ..core.sriov_layer import FrontEndFunction
from ..host.driver import NVMeDriver
from ..host.environment import Host
from ..host.kernel_profile import DEFAULT_KERNEL, KernelProfile
from ..host.policy import DEFAULT_POLICY, SubmissionPolicy, resolve_policy
from ..host.vm import VirtualMachine, VMProfile
from ..mgmt.console import RemoteConsole
from ..nvme.flash import FlashProfile, P4510_PROFILE
from ..obs import MetricsRegistry
from ..nvme.ssd import NVMeSSD
from ..sim import Simulator, StreamFactory

if TYPE_CHECKING:  # each loads only in a world that arms or builds it
    from ..checks.runtime import CheckContext
    from ..faults.injector import FaultInjector
    from .spdk_vhost import SPDKConfig, SPDKVhostTarget, VhostBlockDevice
    from .vfio import VFIOAssignment

__all__ = [
    "NativeRig",
    "BMStoreRig",
    "VFIORig",
    "SPDKRig",
    "build_native",
    "build_bmstore",
    "build_vfio",
    "build_spdk",
]


def _base_world(
    seed: int, kernel: KernelProfile, obs: Optional[MetricsRegistry],
    faults: Optional[FaultPlan], checks,
) -> tuple[Simulator, StreamFactory, Host]:
    """A simulator with the world's instruments armed, and its host.

    Every part built on the simulator reads its instruments there.  An
    injector only exists when the plan actually schedules faults: a
    plan holding nothing but a driver policy arms host-side supervision
    only, so the datapath hooks stay on their ``faults is None`` path.
    """
    sim = Simulator()
    obs = obs or sim.obs  # None: the world's own counters-only registry
    injector = None
    if faults is not None and faults.specs:
        from ..faults.injector import FaultInjector

        injector = FaultInjector(sim, faults)
    sim.arm(obs=obs, checks=resolve_checks(checks, obs), faults=injector)
    streams = StreamFactory(root_seed=seed)
    host = Host(sim, streams, kernel=kernel)
    return sim, streams, host


def _start_faults(sim: Simulator, *fabrics, engine=None, controller=None) -> None:
    """Start the armed injector's timeline, if any (see FaultInjector.start)."""
    if sim.faults is not None:
        sim.faults.start(fabrics, engine=engine, controller=controller)


def _driver_policy(faults: Optional[FaultPlan]) -> Optional[DriverFaultPolicy]:
    return faults.driver_policy if faults is not None else None


class _Instruments:
    """A rig's view of the instruments armed on its simulator."""

    @property
    def obs(self) -> MetricsRegistry:
        return self.sim.obs

    @property
    def faults(self) -> Optional[FaultInjector]:
        return self.sim.faults

    @property
    def checks(self) -> Optional[CheckContext]:
        return self.sim.check_context


# ---------------------------------------------------------------- native
@dataclass
class NativeRig(_Instruments):
    """Bare-metal: the host NVMe driver directly on physical drives."""

    sim: Simulator
    streams: StreamFactory
    host: Host
    ssds: list[NVMeSSD]
    drivers: list[NVMeDriver]

    def driver(self, index: int = 0) -> NVMeDriver:
        return self.drivers[index]


def build_native(
    num_ssds: int = 1,
    kernel: KernelProfile = DEFAULT_KERNEL,
    seed: int = 7,
    queue_depth: int = 1024,
    num_io_queues: int = 4,
    flash_profile: FlashProfile = P4510_PROFILE,
    obs: Optional[MetricsRegistry] = None,
    faults: Optional[FaultPlan] = None,
    checks=None,
    policy: Optional[SubmissionPolicy] = None,
) -> NativeRig:
    """A bare-metal world: host + drives + bound drivers."""
    policy = resolve_policy(policy)
    sim, streams, host = _base_world(seed, kernel, obs, faults, checks)
    ssds = [
        NVMeSSD(sim, host.fabric, streams, name=f"nvme{i}", profile=flash_profile)
        for i in range(num_ssds)
    ]
    _start_faults(sim, host.fabric)
    fault_policy = _driver_policy(faults)
    drivers = [
        NVMeDriver(host, ssd, queue_depth=queue_depth,
                   num_io_queues=num_io_queues, name=f"nvme{i}",
                   fault_policy=fault_policy, policy=policy)
        for i, ssd in enumerate(ssds)
    ]
    return NativeRig(sim, streams, host, ssds, drivers)


# --------------------------------------------------------------- BM-Store
def _fn_policy(fn: FrontEndFunction, policy) -> SubmissionPolicy:
    """A driver's policy; its DMA model goes on the function it binds."""
    policy = resolve_policy(policy) or DEFAULT_POLICY
    fn.dma_model = policy.dma
    return policy


@dataclass
class BMStoreRig(_Instruments):
    """The full BM-Store deployment: engine + controller + console."""

    sim: Simulator
    streams: StreamFactory
    host: Host
    engine: BMSEngine
    controller: BMSController
    console: RemoteConsole
    ssds: list[NVMeSSD]
    fault_policy: Optional[DriverFaultPolicy] = None
    _next_vf: int = 5  # fn 1..4 are PFs; VMs get VFs from 5 up

    def provision(
        self,
        key: str,
        size_bytes: int,
        fn_id: Optional[int] = None,
        placement: Optional[list[int]] = None,
        limits: Optional[QoSLimits] = None,
    ) -> FrontEndFunction:
        """Create a namespace and bind it to a front-end function."""
        if fn_id is None:
            fn_id = self._next_vf
            self._next_vf += 1
        self.engine.create_namespace(key, size_bytes, placement=placement, limits=limits)
        return self.engine.bind_namespace(key, fn_id)

    def baremetal_driver(
        self,
        fn: FrontEndFunction,
        queue_depth: int = 1024,
        num_io_queues: int = 4,
        policy: Optional[SubmissionPolicy] = None,
    ) -> NVMeDriver:
        return NVMeDriver(
            self.host, fn, queue_depth=queue_depth,
            num_io_queues=num_io_queues, name=f"bms.fn{fn.fn_id}",
            fault_policy=self.fault_policy, policy=_fn_policy(fn, policy),
        )

    def vm_driver(
        self,
        vm: VirtualMachine,
        fn: FrontEndFunction,
        queue_depth: int = 1024,
        policy: Optional[SubmissionPolicy] = None,
    ) -> NVMeDriver:
        return vm.bind_nvme(fn, queue_depth=queue_depth,
                            fault_policy=self.fault_policy,
                            policy=_fn_policy(fn, policy))


def build_bmstore(
    num_ssds: int = 4,
    kernel: KernelProfile = DEFAULT_KERNEL,
    seed: int = 7,
    qos_enabled: bool = True,
    zero_copy: bool = True,
    timings: EngineTimings = EngineTimings(),
    controller_timings: ControllerTimings = ControllerTimings(),
    flash_profile: FlashProfile = P4510_PROFILE,
    obs: Optional[MetricsRegistry] = None,
    faults: Optional[FaultPlan] = None,
    checks=None,
    chip_memory_bytes: Optional[int] = None,
) -> BMStoreRig:
    """A full BM-Store world: host + engine/controller/console + drives."""
    sim, streams, host = _base_world(seed, kernel, obs, faults, checks)
    engine_kwargs = {}
    if chip_memory_bytes is not None:
        engine_kwargs["chip_memory_bytes"] = chip_memory_bytes
    engine = BMSEngine(
        host, timings=timings, qos_enabled=qos_enabled, zero_copy=zero_copy,
        **engine_kwargs,
    )
    controller = BMSController(engine, timings=controller_timings)
    console = RemoteConsole(host, engine.front_port.name)
    ssds = []
    for i in range(num_ssds):
        ssd = NVMeSSD(
            sim, engine.backend_fabric, streams, name=f"bssd{i}",
            profile=flash_profile,
        )
        engine.attach_ssd(ssd)
        ssds.append(ssd)
    _start_faults(sim, host.fabric, engine.backend_fabric, engine=engine,
                  controller=controller)
    if faults is not None and "hot_remove" in faults.kinds():
        controller.start_watchdog()
    return BMStoreRig(sim, streams, host, engine, controller, console, ssds,
                      fault_policy=_driver_policy(faults))


# ------------------------------------------------------------------ VFIO
@dataclass
class VFIORig(_Instruments):
    """Pass-through: whole drives assigned to VMs through the IOMMU."""

    sim: Simulator
    streams: StreamFactory
    host: Host
    ssds: list[NVMeSSD]
    vms: list[VirtualMachine]
    drivers: list[NVMeDriver]
    assignment: VFIOAssignment

    def driver(self, index: int = 0) -> NVMeDriver:
        return self.drivers[index]


def build_vfio(
    num_vms: int = 1,
    kernel: KernelProfile = DEFAULT_KERNEL,
    guest_kernel: Optional[KernelProfile] = None,
    vm_profile: VMProfile = VMProfile(),
    seed: int = 7,
    queue_depth: int = 1024,
    flash_profile: FlashProfile = P4510_PROFILE,
    obs: Optional[MetricsRegistry] = None,
    faults: Optional[FaultPlan] = None,
    checks=None,
    policy: Optional[SubmissionPolicy] = None,
) -> VFIORig:
    """Pass-through worlds: one whole drive per VM."""
    from .vfio import VFIOAssignment

    policy = resolve_policy(policy)
    sim, streams, host = _base_world(seed, kernel, obs, faults, checks)
    assignment = VFIOAssignment()
    fault_policy = _driver_policy(faults)
    ssds, vms, drivers = [], [], []
    for i in range(num_vms):
        ssd = NVMeSSD(sim, host.fabric, streams, name=f"nvme{i}", profile=flash_profile)
        vm = VirtualMachine(host, f"vm{i}", profile=vm_profile,
                            guest_kernel=guest_kernel or kernel)
        driver = assignment.assign(vm, ssd, queue_depth=queue_depth,
                                   fault_policy=fault_policy, policy=policy)
        ssds.append(ssd)
        vms.append(vm)
        drivers.append(driver)
    _start_faults(sim, host.fabric)
    return VFIORig(sim, streams, host, ssds, vms, drivers, assignment)


# ------------------------------------------------------------------ SPDK
@dataclass
class SPDKRig(_Instruments):
    """SPDK vhost: polling cores + virtio disks for VMs."""

    sim: Simulator
    streams: StreamFactory
    host: Host
    ssds: list[NVMeSSD]
    target: SPDKVhostTarget
    vdevs: list[VhostBlockDevice]

    def vdev(self, index: int = 0) -> VhostBlockDevice:
        return self.vdevs[index]


def build_spdk(
    num_ssds: int = 1,
    num_cores: int = 1,
    num_vdevs: int = 1,
    vdev_blocks: Optional[int] = None,
    kernel: KernelProfile = DEFAULT_KERNEL,
    seed: int = 7,
    config: Optional[SPDKConfig] = None,
    flash_profile: FlashProfile = P4510_PROFILE,
    obs: Optional[MetricsRegistry] = None,
    faults: Optional[FaultPlan] = None,
    checks=None,
) -> SPDKRig:
    """An SPDK vhost world: polling cores + virtio vdevs (``config``
    defaults to :class:`~repro.baselines.spdk_vhost.SPDKConfig`)."""
    from .spdk_vhost import SPDKConfig, SPDKVhostTarget

    sim, streams, host = _base_world(seed, kernel, obs, faults, checks)
    ssds = [
        NVMeSSD(sim, host.fabric, streams, name=f"nvme{i}", profile=flash_profile)
        for i in range(num_ssds)
    ]
    _start_faults(sim, host.fabric)
    target = SPDKVhostTarget(host, ssds, num_cores=num_cores,
                             config=config or SPDKConfig())
    vdevs = []
    blocks = vdev_blocks or (256 * 1024**3 // 4096)
    per_ssd_next: dict[int, int] = {}
    for i in range(num_vdevs):
        ssd_index = i % num_ssds
        base = per_ssd_next.get(ssd_index, 0)
        per_ssd_next[ssd_index] = base + blocks
        vdevs.append(target.create_vdev(f"vd{i}", ssd_index, base, blocks))
    target.start()
    return SPDKRig(sim, streams, host, ssds, target, vdevs)
