"""Remote storage extension (paper §VI-D future work)."""

from .._lazy import lazy_exports

__all__ = [
    "RDMA_25GBE",
    "RDMA_100GBE",
    "NetworkLink",
    "NetworkProfile",
    "RemoteCompletion",
    "RemoteStorageTarget",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "network": ("RDMA_25GBE", "RDMA_100GBE", "NetworkLink", "NetworkProfile"),
    "target": ("RemoteCompletion", "RemoteStorageTarget"),
})
