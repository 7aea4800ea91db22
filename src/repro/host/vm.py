"""Virtual machines on the bare-metal host.

The bare-metal tenant runs VMs (or containers) on the server; each VM
gets a virtual disk through one of the schemes: a VFIO-assigned device,
a BM-Store VF, or an SPDK vhost virtio device.

The VM contributes the virtualization-only costs on top of the guest
kernel profile:

* ``irq_injection_ns`` — posted-interrupt / vmexit cost to deliver a
  device interrupt into the guest (the ~2.5-3 us delta between the
  paper's bare-metal Table V and in-VM Table VII at qd1).
* ``submit_extra_ns`` — small guest-side virtualization tax per submit.
* ``lock_multiplier`` — guest queue-lock sections cost more under
  vCPU scheduling/cache effects; this reproduces the VM-vs-bare-metal
  IOPS gap at deep queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import Simulator
from .driver import NVMeControllerTarget, NVMeDriver
from .environment import Host
from .kernel_profile import DEFAULT_KERNEL, KernelProfile

__all__ = ["VMProfile", "VirtualMachine"]


@dataclass(frozen=True)
class VMProfile:
    """Virtualization overhead constants."""

    vcpus: int = 4
    memory_gb: int = 4
    irq_injection_ns: int = 2500
    submit_extra_ns: int = 300
    lock_multiplier: float = 3.5


class VirtualMachine:
    """One guest: binds virtual disks with VM overheads applied."""

    def __init__(
        self,
        host: Host,
        name: str,
        profile: VMProfile = VMProfile(),
        guest_kernel: KernelProfile = DEFAULT_KERNEL,
    ):
        self.host = host
        self.sim: Simulator = host.sim
        self.name = name
        self.profile = profile
        self.guest_kernel = guest_kernel
        self.drivers: list[NVMeDriver] = []

    def bind_nvme(
        self,
        controller: NVMeControllerTarget,
        nsid: int = 1,
        num_io_queues: Optional[int] = None,
        queue_depth: int = 1024,
        fault_policy=None,
        policy=None,
    ) -> NVMeDriver:
        """Attach a passthrough NVMe controller (VFIO or BM-Store VF)."""
        contended = int(self.guest_kernel.submit_lock_ns * self.profile.lock_multiplier)
        driver = NVMeDriver(
            self.host,
            controller,
            nsid=nsid,
            num_io_queues=num_io_queues or self.profile.vcpus,
            queue_depth=queue_depth,
            kernel=self.guest_kernel,
            extra_submit_ns=self.profile.submit_extra_ns,
            extra_completion_ns=self.profile.irq_injection_ns,
            lock_ns=self.guest_kernel.submit_lock_ns,
            contended_lock_ns=contended,
            name=f"{self.name}.nvme",
            fault_policy=fault_policy,
            policy=policy,
        )
        self.drivers.append(driver)
        return driver
