"""BM-Store core: the BMS-Engine (FPGA datapath) and BMS-Controller (ARM).

This package is the paper's primary contribution:

* :class:`BMSEngine` — SR-IOV layer, target controller, LBA mapping,
  QoS, DMA request routing (zero-copy global PRPs), host adaptor.
* :class:`BMSController` — out-of-band management (MCTP/NVMe-MI),
  I/O monitor, hot-upgrade, hot-plug.
* :class:`FPGAResourceModel` — Table II resource accounting.
"""

from .._lazy import lazy_exports

__all__ = [
    "AXIBus",
    "BMSController",
    "ControllerTimings",
    "HotPlugReport",
    "UpgradeReport",
    "ADDRESS_MASK",
    "FUNCTION_ID_BITS",
    "decode_global_prp",
    "encode_global_prp",
    "encode_global_prps",
    "is_global_prp",
    "BMSEngine",
    "EngineNamespace",
    "EngineTimings",
    "ZU19EG_TOTALS",
    "FPGAResourceModel",
    "FPGAResources",
    "BackendSlot",
    "HostAdaptor",
    "CHUNK_BYTES",
    "ENTRIES_PER_ROW",
    "ROWS",
    "MappingEntry",
    "MappingTable",
    "QoSLimits",
    "QoSModule",
    "FN_BAR_BYTES",
    "NUM_PFS",
    "NUM_VFS",
    "FrontEndFunction",
    "SRIOVLayer",
    "AdminRequest",
    "TargetController",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "axi": ("AXIBus",),
    "controller": (
        "BMSController", "ControllerTimings", "HotPlugReport", "UpgradeReport",
    ),
    "dma_routing": (
        "ADDRESS_MASK", "FUNCTION_ID_BITS", "decode_global_prp",
        "encode_global_prp", "encode_global_prps", "is_global_prp",
    ),
    "engine": ("BMSEngine", "EngineNamespace", "EngineTimings"),
    "fpga_resources": ("ZU19EG_TOTALS", "FPGAResourceModel", "FPGAResources"),
    "host_adaptor": ("BackendSlot", "HostAdaptor"),
    "lba_mapping": (
        "CHUNK_BYTES", "ENTRIES_PER_ROW", "ROWS", "MappingEntry",
        "MappingTable",
    ),
    "qos": ("QoSLimits", "QoSModule"),
    "sriov_layer": (
        "FN_BAR_BYTES", "NUM_PFS", "NUM_VFS", "FrontEndFunction", "SRIOVLayer",
    ),
    "target_controller": ("AdminRequest", "TargetController"),
})
