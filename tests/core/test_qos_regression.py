"""Regression tests for the QoS fast-path overtaking bug (Fig. 5).

The dispatcher's ``yield buffer.get()`` pops the head command
synchronously and resumes via a now-queue hop, so for one scheduling
step the buffer is empty while the dequeued command has not yet touched
its token buckets.  A same-instant arrival used to see an empty buffer
plus available tokens and take the fast path — overtaking the command
that was admitted first and stealing the tokens it was about to claim.
"""

import pytest

from repro.checks import CheckContext, InvariantViolation
from repro.core import QoSLimits, QoSModule
from repro.core.qos import _NamespaceQoS
from repro.sim import Simulator

#: 100 MB/s with a 1 MiB burst; every command fits inside the burst so
#: each consume() is always eventually satisfiable.
LIMITS = QoSLimits(max_bytes_per_sec=100e6, burst_bytes=1 << 20)
PRIMER = 900 * 1024  # drains the burst down to ~124 KiB
BIG = 512 * 1024  # must buffer behind the drained bucket
SMALL = 4096  # small enough to find leftover tokens to steal


def overtaking_world(qos):
    """A primer, one big buffered command, a small same-instant arrival.

    The small command is admitted from a process body, so it lands in
    the now-queue *between* the dispatcher's ``buffer.get()`` pop and
    the dispatcher's continuation — exactly the overtaking window: the
    buffer is empty and ~124 KiB of tokens remain.
    """
    qos.configure("ns", LIMITS)
    done = []

    def waiter(tag, gate):
        if gate is not None:  # None: admitted with no wait
            yield gate
        done.append((tag, qos.sim.now))

    qos.sim.process(waiter("primer", qos.admit("ns", PRIMER)))  # fast path
    qos.sim.process(waiter("big", qos.admit("ns", BIG)))  # buffered

    def latecomer():
        yield from waiter("small", qos.admit("ns", SMALL))

    qos.sim.process(latecomer())
    return done


def test_same_instant_arrival_cannot_overtake_buffered_command():
    sim = Simulator()
    qos = QoSModule(sim)
    done = overtaking_world(qos)
    sim.run()
    assert [tag for tag, _ in done] == ["primer", "big", "small"]
    big_t = done[1][1]
    # big waits for its missing ~388 KiB of bandwidth budget
    deficit = BIG - ((1 << 20) - PRIMER)
    assert big_t == pytest.approx(deficit / 100e6 * 1e9, rel=0.05)
    assert done[2][1] >= big_t
    assert qos.buffered_total("ns") == 2  # big and small both buffered


def _prefix_admit(self, nbytes, span=None):
    """The pre-fix fast-path condition (no ``_dispatcher_running`` test),
    checker hooks included, for the revert-detection test below."""
    seq = None
    if self.checks is not None:
        seq = self.checks.on_qos_admit(self, span=span)
    gate = self.sim.event(name="qos.admit")
    if len(self.buffer) == 0 and not self.over_threshold(nbytes):
        self.iops_bucket.consume(1.0)
        self.bw_bucket.consume(nbytes)
        self.passed_total += 1
        if self.checks is not None:
            self.checks.on_qos_grant(self, seq, fast=True, span=span)
        gate.succeed()
        return gate
    self.buffered_total += 1
    self.buffer.put((gate, nbytes, seq, span))
    if not self._dispatcher_running:
        self._dispatcher_running = True
        self.sim.process(self._dispatch(), name="qos.dispatch")
    return gate


def test_qos_checker_detects_overtaking_when_fix_reverted(monkeypatch):
    """Revert-detection: with the pre-fix admit logic back in place, the
    qos checker flags the out-of-order grant the fix prevents."""
    monkeypatch.setattr(_NamespaceQoS, "admit", _prefix_admit)
    sim = Simulator()
    ctx = CheckContext(checkers=["qos"])
    sim.arm(checks=ctx)
    qos = QoSModule(sim)
    overtaking_world(qos)
    with pytest.raises(InvariantViolation, match="out of admission order") as exc:
        sim.run()
    assert exc.value.checker == "qos"
    assert exc.value.context["fast_path"] is True


def test_fixed_admit_passes_checker_in_overtaking_scenario():
    sim = Simulator()
    ctx = CheckContext(checkers=["qos"])
    sim.arm(checks=ctx)
    qos = QoSModule(sim)
    done = overtaking_world(qos)
    sim.run()
    assert [tag for tag, _ in done] == ["primer", "big", "small"]
    assert ctx.violations == 0
    assert ctx.summary()["qos"] == 3


def test_buffered_count_alias_removed():
    """The deprecated buffered_count shim is gone for good; the two
    unambiguous accessors cover both readings it conflated."""
    sim = Simulator()
    qos = QoSModule(sim)
    qos.configure("ns", LIMITS)
    drained = [qos.admit("ns", PRIMER), qos.admit("ns", BIG)]  # fast, buffered
    sim.run()
    assert drained[0] is None and drained[1].triggered
    assert not hasattr(qos, "buffered_count")
    assert qos.buffered_total("ns") == 1
    assert qos.buffer_depth("ns") == 0
