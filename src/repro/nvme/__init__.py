"""NVMe protocol substrate: commands, queues, PRPs, and the SSD model."""

from .._lazy import lazy_exports

__all__ = [
    "CQE",
    "SQE",
    "FirmwareImage",
    "FirmwareSlots",
    "P4510_PROFILE",
    "FlashBackend",
    "FlashProfile",
    "Namespace",
    "PRP_ENTRY_BYTES",
    "PRPList",
    "build_prps",
    "page_spans",
    "pages_for",
    "prp_list_bytes",
    "release_prps",
    "walk_prps",
    "CompletionQueue",
    "QueuePair",
    "SubmissionQueue",
    "CQE_BYTES",
    "DOORBELL_STRIDE",
    "LBA_BYTES",
    "SQE_BYTES",
    "AdminOpcode",
    "IOOpcode",
    "StatusCode",
    "DEFAULT_FIRMWARE",
    "NVMeSSD",
    "SSDStats",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "command": ("CQE", "SQE"),
    "firmware": ("FirmwareImage", "FirmwareSlots"),
    "flash": ("P4510_PROFILE", "FlashBackend", "FlashProfile"),
    "namespace": ("Namespace",),
    "prp": (
        "PRP_ENTRY_BYTES", "PRPList", "build_prps", "page_spans", "pages_for",
        "prp_list_bytes", "release_prps", "walk_prps",
    ),
    "queues": ("CompletionQueue", "QueuePair", "SubmissionQueue"),
    "spec": (
        "CQE_BYTES", "DOORBELL_STRIDE", "LBA_BYTES", "SQE_BYTES",
        "AdminOpcode", "IOOpcode", "StatusCode",
    ),
    "ssd": ("DEFAULT_FIRMWARE", "NVMeSSD", "SSDStats"),
})
