"""NVMe protocol substrate: commands, queues, PRPs, and the SSD model."""

from .command import CQE, SQE
from .firmware import FirmwareImage, FirmwareSlots
from .flash import P4510_PROFILE, FlashBackend, FlashProfile
from .namespace import Namespace
from .prp import (
    PRP_ENTRY_BYTES,
    PRPList,
    build_prps,
    page_spans,
    pages_for,
    prp_list_bytes,
    release_prps,
    walk_prps,
)
from .queues import CompletionQueue, QueuePair, SubmissionQueue
from .spec import (
    CQE_BYTES,
    DOORBELL_STRIDE,
    LBA_BYTES,
    SQE_BYTES,
    AdminOpcode,
    IOOpcode,
    StatusCode,
)
from .ssd import DEFAULT_FIRMWARE, NVMeSSD, SSDStats

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
