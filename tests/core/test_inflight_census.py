"""A command in flight is held by slotted records, not generator frames.

Mid-window in seq-w-256, 1,024 closed-loop workers each keep one 128 KiB
write in flight.  Each is a ``FioWorker`` waiting on its completion and,
on the drive, a ``DriveCommand`` waiting on the flash.  The only
generators of the drive, its flash and the fio run that may be alive are
the flash's background media programs (``FlashBackend._drain``), which
the write-back buffer bounds.
"""

import gc
import inspect
from collections import Counter
from dataclasses import replace

from repro.baselines import build_bmstore
from repro.sim.units import GIB, MS
from repro.workloads.fio import TABLE_IV_CASES, FioRun


def _generators_of(*owners) -> Counter:
    """Live generators whose ``self`` is one of ``owners``, by qualname."""
    ids = {id(owner) for owner in owners}
    gc.collect()
    return Counter(
        obj.__qualname__ for obj in gc.get_objects()
        if inspect.isgenerator(obj) and obj.gi_frame is not None
        and id(obj.gi_frame.f_locals.get("self")) in ids
    )


def test_sw256_in_flight_commands_hold_no_generator_frames():
    spec = replace(TABLE_IV_CASES["seq-w-256"], runtime_ns=20 * MS,
                   ramp_ns=10 * MS)
    rig = build_bmstore(num_ssds=1, seed=7)
    driver = rig.baremetal_driver(rig.provision("ns0", 64 * GIB))
    run = FioRun(rig.sim, [driver], spec, rig.streams)
    rig.sim.run(until=10 * MS)
    ssd = rig.ssds[0]
    # every worker's write is submitted, and most are on the drive
    assert len(driver._pending) >= 1000
    assert ssd.stats.inflight >= 900
    live = _generators_of(ssd, ssd.flash, run)
    drains = live.pop("FlashBackend._drain", 0)
    assert not live, f"generators on the I/O path: {dict(live)}"
    assert drains <= ssd.flash.profile.write_buffer_depth
