"""Declarative scheme registry.

One place declares every storage scheme the repo knows about — both the
*runnable* schemes (the ``repro.experiments`` runners and the bench
matrix) and the *paper* schemes compared in Table I.  Each entry states
its capabilities structurally:

* where the data path is interposed (``interposition``),
* which :class:`~repro.host.policy.SubmissionPolicy` knobs it honours
  (``doorbell_modes``/``dma_models``),
* which QoS / fault-injection / runtime-checker seams exist,
* and the structural Table-I properties (host cores, driver and device
  requirements, reported throughput, architecture, management path).

Downstream tables are *consequences* of this registry: the six Table I
columns are properties derived from those structural inputs,
:mod:`repro.baselines.features` reads them off the ``table1`` entries,
and :mod:`repro.experiments.common` asserts its runner map covers
exactly the ``runnable`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "SchemeDef",
    "SCHEME_DEFS",
    "runnable_schemes",
    "table1_schemes",
    "scheme_def",
]

#: interposition levels, from "the host driver owns the drive" to "every
#: command crosses an emulation layer"
INTERPOSITION_LEVELS = ("none", "doorbell", "full", "software")


@dataclass(frozen=True)
class SchemeDef:
    """Capabilities and structural properties of one storage scheme."""

    #: runnable registry key (``run_case`` scheme name); None = paper-only
    key: Optional[str]
    #: Table-I row label; None = not a paper-compared scheme
    title: Optional[str]
    #: where the per-command data path is interposed
    interposition: str = "none"
    #: SubmissionPolicy doorbell modes the scheme's driver honours
    doorbell_modes: tuple = ("immediate", "shadow", "batched")
    #: SubmissionPolicy DMA models the scheme's engine honours
    dma_models: tuple = ("register",)
    #: the engine QoS module gates this scheme's commands
    qos_seam: bool = False
    #: fault-injection seams the scheme's rig wires up
    fault_seams: tuple = ()
    #: runtime invariant checkers with coverage on this scheme's path
    check_seams: tuple = ()

    # -- structural Table-I inputs (paper-reported) -----------------------
    dedicated_host_cores: int = 0
    requires_custom_driver: bool = False
    requires_special_device: bool = False
    single_disk_throughput: float = 1.0
    architecture: str = "direct-attached"
    out_of_band_management: bool = False

    def __post_init__(self) -> None:
        if self.interposition not in INTERPOSITION_LEVELS:
            raise ValueError(
                f"interposition {self.interposition!r} not one of "
                f"{INTERPOSITION_LEVELS}"
            )
        if self.key is None and self.title is None:
            raise ValueError("a scheme needs a runnable key or a Table-I title")

    @property
    def runnable(self) -> bool:
        return self.key is not None

    @property
    def table1(self) -> bool:
        return self.title is not None

    # -- derived Table-I columns ------------------------------------------
    @property
    def host_efficiency(self) -> bool:
        return self.dedicated_host_cores == 0

    @property
    def compatibility(self) -> bool:
        """Works with commodity NVMe drives from any vendor."""
        return not self.requires_special_device

    @property
    def transparency(self) -> bool:
        """No software installed in the tenant's host OS."""
        return not self.requires_custom_driver

    @property
    def performance(self) -> bool:
        """Near-native single-disk throughput (>= 80%)."""
        return self.single_disk_throughput >= 0.80

    @property
    def deployability(self) -> bool:
        """Deployable at scale on bare-metal instances.

        Software schemes deploy trivially where the vendor controls the
        host; P2P hardware schemes need host-side drivers, which
        bare-metal tenants will not install.
        """
        return self.architecture != "p2p"

    @property
    def manageability(self) -> bool:
        return self.out_of_band_management


_DRIVER_CHECKS = ("ring", "prp", "kernel")
_ENGINE_CHECKS = ("ring", "prp", "lba", "qos", "kernel")

SCHEME_DEFS: tuple[SchemeDef, ...] = (
    # ---- runnable schemes (the run_case/bench registry) ----------------
    SchemeDef(
        key="native", title=None, interposition="none",
        fault_seams=("media", "fabric", "firmware"),
        check_seams=_DRIVER_CHECKS,
    ),
    SchemeDef(
        key="bmstore", title="BM-Store", interposition="full",
        dma_models=("register", "descriptor"), qos_seam=True,
        fault_seams=("media", "fabric", "firmware", "hot_remove", "link_flap"),
        check_seams=_ENGINE_CHECKS,
        dedicated_host_cores=0, requires_custom_driver=False,
        requires_special_device=False, single_disk_throughput=0.96,
        architecture="direct-attached", out_of_band_management=True,
    ),
    SchemeDef(
        key="passthrough", title=None, interposition="doorbell",
        dma_models=("register", "descriptor"), qos_seam=False,
        fault_seams=("media", "fabric", "firmware", "hot_remove", "link_flap"),
        check_seams=_ENGINE_CHECKS,
        out_of_band_management=True,
    ),
    SchemeDef(
        key="vfio-vm", title="SR-IOV", interposition="none",
        fault_seams=("media", "fabric", "firmware"),
        check_seams=_DRIVER_CHECKS,
        dedicated_host_cores=0, requires_custom_driver=False,
        requires_special_device=True, single_disk_throughput=0.98,
        architecture="device", out_of_band_management=False,
    ),
    SchemeDef(
        key="bmstore-vm", title=None, interposition="full",
        dma_models=("register", "descriptor"), qos_seam=True,
        fault_seams=("media", "fabric", "firmware", "hot_remove", "link_flap"),
        check_seams=_ENGINE_CHECKS,
        out_of_band_management=True,
    ),
    SchemeDef(
        key="spdk-vm", title="SPDK vhost", interposition="software",
        doorbell_modes=("immediate",),
        fault_seams=("media", "fabric"),
        check_seams=("prp", "kernel"),
        dedicated_host_cores=1, requires_custom_driver=True,
        requires_special_device=False, single_disk_throughput=0.90,
        architecture="software", out_of_band_management=False,
    ),
    # ---- paper-only schemes (Table I rows without a runner; MDev-NVMe
    # runs as the vhost target's MDEV_CONFIG preset) ---------------------
    SchemeDef(
        key=None, title="MDev-NVMe", interposition="software",
        dedicated_host_cores=1, requires_custom_driver=True,
        requires_special_device=False, single_disk_throughput=0.95,
        architecture="software", out_of_band_management=False,
    ),
    SchemeDef(
        key=None, title="LeapIO", interposition="full",
        dedicated_host_cores=0, requires_custom_driver=True,
        requires_special_device=False, single_disk_throughput=0.68,
        architecture="p2p", out_of_band_management=False,
    ),
    SchemeDef(
        key=None, title="FVM", interposition="full",
        dedicated_host_cores=0, requires_custom_driver=True,
        requires_special_device=False, single_disk_throughput=0.97,
        architecture="p2p", out_of_band_management=False,
    ),
)

#: Table I row order as the paper prints it
_TABLE1_ORDER = ("MDev-NVMe", "SPDK vhost", "SR-IOV", "LeapIO", "FVM", "BM-Store")


def runnable_schemes() -> dict[str, SchemeDef]:
    """Runnable scheme key -> definition (run_case registry order)."""
    return {d.key: d for d in SCHEME_DEFS if d.runnable}


def table1_schemes() -> dict[str, SchemeDef]:
    """Table-I title -> definition, in the paper's row order."""
    by_title = {d.title: d for d in SCHEME_DEFS if d.table1}
    return {title: by_title[title] for title in _TABLE1_ORDER}


def scheme_def(key: str) -> SchemeDef:
    d = runnable_schemes().get(key)
    if d is None:
        raise KeyError(f"no runnable scheme {key!r}")
    return d
