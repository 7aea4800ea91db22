"""Comparison schemes: native, VFIO, SPDK vhost and MDev-NVMe, Table I, rig builders."""

from .features import FEATURE_COLUMNS, feature_matrix
from .registry import SCHEME_DEFS, SchemeDef, runnable_schemes, scheme_def, table1_schemes
from .rigs import (
    BMStoreRig,
    NativeRig,
    SPDKRig,
    VFIORig,
    build_bmstore,
    build_native,
    build_spdk,
    build_vfio,
)
from .spdk_vhost import MDEV_CONFIG, SPDKConfig, SPDKVhostTarget, VhostBlockDevice
from .vfio import VFIOAssignment

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
