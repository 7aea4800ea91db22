"""Computational pushdown: validated in-engine I/O programs.

The host installs small, statically validated *programs* on a
namespace; a single vendor I/O command (``PUSH_EXEC``) then runs a
program invocation *at* the BMS-Engine, which issues the backend reads
itself — a multi-hop pointer chase costs one host↔engine submission
instead of one round-trip per hop (the "BPF for storage" bet,
arXiv 2102.12922).
"""

from .._lazy import lazy_exports

__all__ = [
    "MAX_FANOUT",
    "MAX_HOPS",
    "PushCosts",
    "PushManager",
    "PushProgram",
    "PushResult",
    "PushValidationError",
    "chase_program",
    "cond_write_program",
    "filter_program",
    "validate_program",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "program": (
        "MAX_FANOUT", "MAX_HOPS", "PushCosts", "PushProgram",
        "PushValidationError", "chase_program", "cond_write_program",
        "filter_program", "validate_program",
    ),
    "manager": ("PushManager", "PushResult"),
})
