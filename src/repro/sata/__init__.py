"""SATA device substrate (paper §VI-A compatibility extension)."""

from .._lazy import lazy_exports

__all__ = ["HDD_7200_PROFILE", "SATA_SSD_PROFILE", "SATADisk", "SATAProfile"]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "disk": (
        "HDD_7200_PROFILE", "SATA_SSD_PROFILE", "SATADisk", "SATAProfile",
    ),
})
