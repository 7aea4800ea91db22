"""One repeat of one workload: ``python -m bench.child '<job json>'``.

The job names the workload, seed, scale and pass (``plain``,
``sample`` or ``count``).  The child imports ``repro`` from this
checkout's ``src`` only, runs the repeat, and prints its record as
one JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import sys

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_repro() -> None:
    sys.path.insert(0, SRC_DIR)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(SRC_DIR, "")):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC_DIR}")


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    _import_repro()
    from .layers import FileLayers
    from .trace import TRACERS
    from .workloads import WORKLOADS

    tracer = TRACERS[job["mode"]](FileLayers(SRC_DIR))
    tracer.install()
    record = WORKLOADS[job["workload"]].run(job["seed"], job["quick"], tracer)
    record.update(tracer.result())
    record["mode"] = job["mode"]
    record["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
