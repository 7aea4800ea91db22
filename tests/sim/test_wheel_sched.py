"""Empty-schedule `step` edges of the event scheduler.

The module keeps the name it had under the former calendar-wheel
scheduler so that these test ids stay stable; the kernel now has one
binary-heap scheduler, and "wheel" here means the event schedule."""

import pytest

from repro.sim import SimulationError, Simulator

#: a delay far beyond any short-horizon bucket of the schedule
FAR_NS = 1 << 40


def test_step_on_empty_wheel_raises_simulation_error():
    sim = Simulator()
    with pytest.raises(SimulationError, match="no events are scheduled"):
        sim.step()


def test_step_after_wheel_drained_raises_simulation_error():
    sim = Simulator()
    sim.timeout(FAR_NS + 1)  # the only event lies far in the future
    sim.step()
    assert sim.now == FAR_NS + 1
    with pytest.raises(SimulationError, match="no events are scheduled"):
        sim.step()
