"""Runtime invariant checkers + static determinism audit.

Two halves:

* :mod:`repro.checks.runtime` — opt-in :class:`CheckContext` armed at
  the same component seams the fault injector uses; named checkers
  (ring, prp, lba, qos, kernel) raise :class:`InvariantViolation` at
  the point of violation and count their coverage in ``repro.obs``.
  Arm per run with ``run_case(..., checks="all")`` / a builder's
  ``checks=`` argument, or globally with ``REPRO_CHECKS=1``;
  :func:`resolve_checks` (:mod:`repro.checks.resolve`) reads that
  argument, and imports the checkers only when it arms them.
* :mod:`repro.checks.static` — an AST audit of the source tree for
  nondeterminism hazards (unseeded ``random``, wall-clock reads,
  unordered-set iteration), run by ``python -m repro check --static``.

Checkers are pure observers: a checked run's simulation payload is
byte-identical to an unchecked run.
"""

from .._lazy import lazy_exports

__all__ = [
    "CHECKER_NAMES",
    "CheckContext",
    "InvariantViolation",
    "resolve_checks",
    "Finding",
    "audit_file",
    "audit_tree",
    "render_findings",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "runtime": ("CHECKER_NAMES", "CheckContext", "InvariantViolation"),
    "resolve": ("resolve_checks",),
    "static": ("Finding", "audit_file", "audit_tree", "render_findings"),
})
