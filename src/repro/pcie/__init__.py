"""PCIe substrate: TLPs, links, config space, SR-IOV functions, MSI-X.

Two instances of :class:`PCIeFabric` model BM-Store's two separate PCIe
domains: the host domain (host root complex <-> BMS-Engine front end)
and the back-end domain (BMS-Engine root <-> SSDs).
"""

from .._lazy import lazy_exports

__all__ = [
    "ConfigSpace",
    "SRIOVCapability",
    "PCIE_GEN3_BYTES_PER_SEC_PER_LANE",
    "AddressHandler",
    "PCIeFabric",
    "Port",
    "PCIeDevice",
    "PCIeFunction",
    "InterruptController",
    "MSIXEntry",
    "MSIXTable",
    "MAX_PAYLOAD_BYTES",
    "TLP",
    "TLP_HEADER_BYTES",
    "Completion",
    "MemRead",
    "MemWrite",
    "TLPType",
    "VendorDefinedMessage",
    "wire_bytes",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "config_space": ("ConfigSpace", "SRIOVCapability"),
    "fabric": (
        "PCIE_GEN3_BYTES_PER_SEC_PER_LANE", "AddressHandler", "PCIeFabric",
        "Port",
    ),
    "function": ("PCIeDevice", "PCIeFunction"),
    "msix": ("InterruptController", "MSIXEntry", "MSIXTable"),
    "tlp": (
        "MAX_PAYLOAD_BYTES", "TLP", "TLP_HEADER_BYTES", "Completion",
        "MemRead", "MemWrite", "TLPType", "VendorDefinedMessage", "wire_bytes",
    ),
})
