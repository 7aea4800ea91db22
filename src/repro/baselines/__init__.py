"""Comparison schemes: native, VFIO, SPDK vhost and MDev-NVMe, Table I, rig builders."""

from .._lazy import lazy_exports

__all__ = [
    "FEATURE_COLUMNS",
    "feature_matrix",
    "SCHEME_DEFS",
    "SchemeDef",
    "runnable_schemes",
    "scheme_def",
    "table1_schemes",
    "BMStoreRig",
    "NativeRig",
    "SPDKRig",
    "VFIORig",
    "build_bmstore",
    "build_native",
    "build_spdk",
    "build_vfio",
    "MDEV_CONFIG",
    "SPDKConfig",
    "SPDKVhostTarget",
    "VhostBlockDevice",
    "VFIOAssignment",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "features": ("FEATURE_COLUMNS", "feature_matrix"),
    "registry": (
        "SCHEME_DEFS", "SchemeDef", "runnable_schemes", "scheme_def",
        "table1_schemes",
    ),
    "rigs": (
        "BMStoreRig", "NativeRig", "SPDKRig", "VFIORig", "build_bmstore",
        "build_native", "build_spdk", "build_vfio",
    ),
    "spdk_vhost": (
        "MDEV_CONFIG", "SPDKConfig", "SPDKVhostTarget", "VhostBlockDevice",
    ),
    "vfio": ("VFIOAssignment",),
})
