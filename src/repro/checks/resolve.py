"""The ``checks=`` argument every builder takes, resolved to a context.

Kept apart from :mod:`repro.checks.runtime` so that an unchecked world
never imports the checkers: they load when a run arms them.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Optional, Union

if TYPE_CHECKING:
    from .runtime import CheckContext

__all__ = ["resolve_checks"]

#: spellings of "no checkers" accepted by :func:`resolve_checks`
_OFF_VALUES = ("", "0", "off", "none", "false")
#: spellings of "every checker"
_ALL_VALUES = ("1", "all", "on", "true")


def resolve_checks(
    checks: Union[None, bool, str, Iterable[str], CheckContext],
    obs=None,
) -> Optional[CheckContext]:
    """Normalize a ``checks=`` argument into a context (or None = off).

    ``None`` consults the ``REPRO_CHECKS`` environment variable ("1" /
    "all" arms everything, a comma list arms a subset, unset/"0"
    disarms).  ``True``/"all" arms everything; ``False``/"off" disarms;
    an iterable of names arms that subset; an existing
    :class:`CheckContext` passes through unchanged (its own ``obs``
    wins).
    """
    if checks is None:
        checks = os.environ.get("REPRO_CHECKS", "")
    lowered = checks.strip().lower() if isinstance(checks, str) else None
    if checks is False or lowered in _OFF_VALUES:
        return None
    from .runtime import CheckContext

    if isinstance(checks, CheckContext):
        return checks
    if checks is True or lowered in _ALL_VALUES:
        return CheckContext(obs=obs)
    if lowered is not None:
        names = [part.strip() for part in checks.split(",") if part.strip()]
        return CheckContext(checkers=names, obs=obs)
    names = list(checks)
    return CheckContext(checkers=names, obs=obs) if names else None
