"""The correctness gate: a run whose outputs are wrong measures nothing.

``check`` takes one workload's repeat records (all passes) and returns
human-readable failures; an empty list passes.
"""

from __future__ import annotations

import json

__all__ = ["ANCHOR_MAX_PCT", "check"]

#: largest allowed |sim mean - Table V| / Table V, in percent
ANCHOR_MAX_PCT = 5.0


def check(workload: str, records: list) -> list[str]:
    """Failures of one workload's records (empty = correct)."""
    if not records:
        return [f"{workload}: no repeat ran"]
    failures = []
    for i, r in enumerate(records):
        where = f"{workload} repeat {i} ({r['mode']})"
        if r["ops"] < 1:
            failures.append(f"{where}: no op completed in the window")
        if r["failed"]:
            failures.append(f"{where}: {r['failed']} of {r['ops']} ops failed")
        failures += [f"{where}: check {name} failed"
                     for name, ok in sorted(r["checks"].items()) if not ok]
        anchor = r.get("anchor_err_pct")
        if anchor is not None and not anchor < ANCHOR_MAX_PCT:
            failures.append(f"{where}: mean latency {anchor:.2f}% off Table V "
                            f"(limit {ANCHOR_MAX_PCT}%)")
    if len({r["digest"] for r in records}) > 1:
        failures.append(f"{workload}: simulated results differ between "
                        "repeats or tracer passes")
    matrices = {json.dumps(r["kernel_calls"], sort_keys=True)
                for r in records if "kernel_calls" in r}
    if len(matrices) > 1:
        failures.append(f"{workload}: kernel call counts differ between repeats")
    return failures
