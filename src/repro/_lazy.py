"""Lazy package exports (PEP 562).

A package ``__init__`` names its public surface without importing it::

    __all__ = ["Simulator", "units", ...]
    __getattr__, __dir__ = lazy_exports(__name__, __all__, {
        "kernel": ("Simulator", ...),
    })

``exports`` maps a submodule (relative to the package) to the names it
provides; a name in ``__all__`` that no submodule provides is itself a
submodule.  The first access to a name imports its submodule and
caches the name in the package's globals, so later accesses are plain
attribute reads and ``from package import name`` keeps working.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    names: Sequence[str],
    exports: Mapping[str, Sequence[str]],
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``."""
    public = frozenset(names)
    source = {name: sub for sub, provided in exports.items() for name in provided}
    unlisted = sorted(set(source) - public)
    if unlisted:
        raise ImportError(f"{package}: exports missing from __all__: {unlisted}")
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in public:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        sub = source.get(name)
        if sub is None:
            value = import_module(f"{package}.{name}")
        else:
            value = getattr(import_module(f"{package}.{sub}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | public)

    return __getattr__, __dir__
