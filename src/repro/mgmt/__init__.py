"""Out-of-band management: MCTP over PCIe, NVMe-MI, remote console."""

from .._lazy import lazy_exports

__all__ = [
    "CONSOLE_EID",
    "RemoteConsole",
    "MCTP_BTU",
    "MCTPEndpoint",
    "MCTPPacket",
    "MCTP_TYPE_NVME_MI",
    "MIOpcode",
    "MIRequest",
    "MIResponse",
    "MIStatus",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "console": ("CONSOLE_EID", "RemoteConsole"),
    "mctp": ("MCTP_BTU", "MCTPEndpoint", "MCTPPacket"),
    "nvme_mi": (
        "MCTP_TYPE_NVME_MI", "MIOpcode", "MIRequest", "MIResponse", "MIStatus",
    ),
})
