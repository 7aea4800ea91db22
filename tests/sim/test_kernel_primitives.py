"""The four relay-free kernel primitives reproduce the timestamps of the
multi-event forms they replace.

* ``BandwidthLink.transfer(n, extra_ns=a)`` == ``transfer(n)`` then
  ``timeout(a)``;
* ``spawn(gen, delay=d)`` == spawn, then ``yield timeout(d)`` first;
* ``Resource.try_acquire()`` never overtakes a queued waiter, so grant
  order is that of ``acquire`` alone;
* ``Simulator.start`` runs the first step inside the caller, and an
  exception in that step surfaces out of ``run()``, not the caller;
* ``Simulator.wait`` resumes a continuation by the rule a process is
  resumed by.
"""

import pytest

from repro.sim import (BandwidthLink, Interrupt, Resource, SimulationError,
                       Simulator, failure)


# ------------------------------------------------------------ transfer
@pytest.mark.parametrize("extra", [0, 1, 25, 1500])
@pytest.mark.parametrize("busy", [0, 300])
def test_transfer_extra_ns_matches_transfer_then_timeout(extra, busy):
    def arrivals(fused: bool) -> list:
        sim = Simulator()
        link = BandwidthLink(sim, 4e9, propagation_ns=150)
        if busy:
            link.stall(busy)
        seen = []

        def proc(tag, nbytes):
            if fused:
                yield link.transfer(nbytes, extra_ns=extra)
            else:
                yield link.transfer(nbytes)
                yield sim.timeout(extra)
            seen.append((tag, sim.now))

        for tag, nbytes in enumerate((4096, 64, 131072)):
            sim.process(proc(tag, nbytes))
        sim.run()
        return sorted(seen)

    assert arrivals(True) == arrivals(False)


def test_transfer_extra_ns_carries_the_value():
    sim = Simulator()
    link = BandwidthLink(sim, 1e9)
    got = []

    def proc():
        got.append((yield link.transfer(1000, value="data", extra_ns=7)))
        got.append(sim.now)

    sim.process(proc())
    sim.run()
    assert got == ["data", 1007]


# ------------------------------------------------------- spawn(delay=)
def test_spawn_delay_first_runs_at_now_plus_delay():
    sim = Simulator()
    seen = []

    def body(tag):
        seen.append((tag, sim.now))
        yield sim.timeout(10)
        seen.append((tag + "-end", sim.now))

    def parent():
        yield sim.timeout(100)
        sim.spawn(body("delayed"), name="d", delay=40)
        sim.spawn(body("now"), name="n")

    sim.process(parent())
    sim.run()
    assert ("now", 100) in seen
    assert ("delayed", 140) in seen
    assert ("delayed-end", 150) in seen


def test_spawn_delay_matches_spawn_then_timeout():
    def timeline(fused: bool) -> list:
        sim = Simulator()
        seen = []

        def body(tag, delay):
            if not fused:
                yield sim.timeout(delay)
            seen.append((tag, sim.now))
            yield sim.timeout(5)
            seen.append((tag, sim.now))

        for tag, delay in enumerate((0, 3, 200, 3)):
            if fused:
                sim.spawn(body(tag, delay), name="b", delay=delay)
            else:
                sim.spawn(body(tag, delay), name="b")
        sim.run()
        return sorted(seen)

    assert timeline(True) == timeline(False)


# --------------------------------------------------------- try_acquire
def test_try_acquire_takes_a_free_server_without_an_event():
    sim = Simulator()
    res = Resource(sim, 2)
    assert res.try_acquire()
    assert res.try_acquire()
    assert res.in_use == 2
    assert not res.try_acquire()
    assert sim.peek() is None  # nothing was scheduled
    res.release()
    assert res.in_use == 1


def test_try_acquire_fails_while_a_waiter_is_queued():
    sim = Simulator()
    res = Resource(sim, 1)
    order = []

    def holder():
        assert res.try_acquire()
        yield sim.timeout(10)
        res.release()

    def waiter(tag):
        yield res.acquire()
        order.append((tag, sim.now))
        yield sim.timeout(5)
        res.release()

    def latecomer():
        # arrives at the instant the holder releases, after a waiter
        # queued: the server goes to the waiter, not to try_acquire
        yield sim.timeout(10)
        assert res.queued == 1 and res.in_use == 1
        assert not res.try_acquire()
        yield res.acquire()
        order.append(("late", sim.now))
        res.release()

    sim.process(holder())
    sim.process(waiter("w1"))
    sim.process(waiter("w2"))
    sim.process(latecomer())
    sim.run()
    assert [tag for tag, _ in order] == ["w1", "w2", "late"]
    assert order == [("w1", 10), ("w2", 15), ("late", 20)]


def test_try_acquire_grant_order_matches_acquire():
    def grants(fast: bool) -> list:
        sim = Simulator()
        res = Resource(sim, 2)
        out = []

        def user(tag, arrive, hold):
            yield sim.timeout(arrive)
            if not (fast and res.try_acquire()):
                yield res.acquire()
            out.append((tag, sim.now))
            yield sim.timeout(hold)
            res.release()

        for tag, (arrive, hold) in enumerate(
                [(0, 30), (0, 10), (0, 10), (5, 1), (10, 4), (10, 4), (40, 2)]):
            sim.process(user(tag, arrive, hold))
        sim.run()
        return out

    assert grants(True) == grants(False)


# ---------------------------------------------------------------- start
def test_start_runs_the_first_step_before_returning():
    sim = Simulator()
    seen = []

    def body():
        seen.append(("first", sim.now))
        yield sim.timeout(7)
        seen.append(("second", sim.now))

    def parent():
        yield sim.timeout(3)
        sim.start(body(), name="b")
        seen.append(("parent", sim.now))

    sim.process(parent())
    sim.run()
    assert seen == [("first", 3), ("parent", 3), ("second", 10)]


def test_start_matches_spawn_timestamps():
    def timeline(inline: bool) -> list:
        sim = Simulator()
        seen = []

        def body(tag):
            seen.append((tag, "a", sim.now))
            yield sim.timeout(4)
            seen.append((tag, "b", sim.now))

        def parent():
            for tag in range(3):
                (sim.start if inline else sim.spawn)(body(tag), name="b")
                yield sim.timeout(2)

        sim.process(parent())
        sim.run()
        return sorted(seen)

    assert timeline(True) == timeline(False)


def test_start_first_step_exception_surfaces_from_run():
    sim = Simulator()
    caller_saw = []

    def broken():
        raise RuntimeError("first step")
        yield  # pragma: no cover - makes this a generator

    def parent():
        yield sim.timeout(1)
        try:
            sim.start(broken(), name="broken")
        except RuntimeError:  # pragma: no cover - the bug this pins
            caller_saw.append("leaked")
        caller_saw.append("continued")
        yield sim.timeout(1)

    sim.process(parent())
    with pytest.raises(RuntimeError, match="first step"):
        sim.run()
    assert caller_saw == ["continued"]
    assert sim.now == 1


def test_start_exception_is_swallowed_on_non_strict_simulator():
    sim = Simulator(strict=False)

    def broken():
        raise RuntimeError("ignored")
        yield  # pragma: no cover

    sim.start(broken(), name="broken")
    sim.run()
    # a later start reuses the recycled process object cleanly
    seen = []

    def ok():
        seen.append(sim.now)
        yield sim.timeout(2)
        seen.append(sim.now)

    sim.start(ok(), name="ok")
    sim.run()
    assert seen == [0, 2]


def test_start_finishing_in_first_step_schedules_nothing():
    sim = Simulator()
    ran = []

    def quick():
        ran.append(True)
        return
        yield  # pragma: no cover

    sim.start(quick(), name="q")
    assert ran == [True]
    assert sim.peek() is None


# ------------------------------------------------------------- redirect
def test_redirect_moves_the_waiter_and_keeps_interrupt_working():
    sim = Simulator()
    done = sim.pooled_event("done")
    seen = []

    def waiter():
        try:
            seen.append((yield done))
        except Interrupt as irq:
            seen.append(("irq", irq.cause, sim.now))

    proc = sim.process(waiter())
    sim.run()  # waiter now parked on done
    leg = sim.timeout(50, value="payload")
    sim.redirect(done, leg)

    def poker():
        yield sim.timeout(10)
        proc.interrupt("stop")

    sim.process(poker())
    sim.run()
    assert seen == [("irq", "stop", 10)]


def test_redirect_delivers_the_new_events_value_and_recycles():
    sim = Simulator()
    done = sim.pooled_event("done")
    seen = []

    def waiter():
        seen.append(((yield done), sim.now))

    sim.process(waiter())
    sim.run()
    sim.redirect(done, sim.timeout(30, value="x"))
    assert done in sim._event_pool
    sim.run()
    assert seen == [("x", 30)]


def test_redirect_relays_a_pinned_event():
    sim = Simulator()
    done = sim.pooled_event("done")
    cond = sim.any_of([done])  # pins done: it must really fire
    sim.redirect(done, sim.timeout(8, value="v"))
    assert sim.run(until=cond) == {done: "v"}
    assert done.processed and sim.now == 8


# ----------------------------------------------------------- completion
def _phase_order(form: str) -> list:
    """Who runs first at t=10: a waiter on a link leg's completion, or a
    timer due at the same instant (created after the leg)?"""
    sim = Simulator()
    link = BandwidthLink(sim, 1e9)
    seen = []

    def waiter(handle):
        seen.append(("value", (yield handle)))
        seen.append("waiter")

    def timer(_ev):
        seen.append("timer")
        sim.timeout(0).callbacks.append(lambda _e: seen.append("after"))

    leg = link.transfer(10, value="data")
    if form == "relay":
        handle = sim.event()
        leg.callbacks.append(lambda ev: handle.succeed(ev.value))
    elif form == "completion":
        handle = sim.completion(leg)
    else:
        handle = sim.pooled_event()
    sim.process(waiter(handle))
    sim.timeout(10).callbacks.append(timer)
    sim.run(until=5)
    if form == "redirect":
        sim.redirect(handle, leg)
    sim.run()
    return seen


def test_completion_leg_resumes_where_a_relay_would_have():
    expected = ["timer", ("value", "data"), "waiter", "after"]
    assert _phase_order("relay") == expected
    assert _phase_order("completion") == expected
    assert _phase_order("redirect") == expected


def test_completion_dispatches_once():
    sim = Simulator()
    sim.completion(sim.timeout(3))
    sim.run()
    assert sim.events_processed == 1 and sim.now == 3


# ---------------------------------------------------------------- wait
def _trace(sim, events, order):
    """A process and a continuation wait on the same events in turn;
    each logs (who, value, now) when it resumes."""
    def proc():
        for ev in events:
            value = yield ev
            order.append(("proc", value, sim.now))

    class Record:
        def __init__(self):
            self.left = list(events)

        def __call__(self, ev):
            order.append(("record", ev.value, sim.now))
            if self.left:
                sim.wait(self.left.pop(0), self)

    sim.process(proc())
    record = Record()
    sim.wait(record.left.pop(0), record)


def test_wait_resumes_a_continuation_where_a_process_resumes():
    sim = Simulator()
    fired = sim.event().succeed("early")
    sim.run()  # processed before anyone waits on it
    order = []
    _trace(sim, [fired, sim.timeout(5, "late"), fired], order)
    sim.run()
    # both wait by one rule: a fired event replays at the same instant
    assert [o for o in order if o[0] == "proc"] == [
        ("proc", "early", 0), ("proc", "late", 5), ("proc", "early", 5)]
    assert [o for o in order if o[0] == "record"] == [
        ("record", "early", 0), ("record", "late", 5), ("record", "early", 5)]


def test_wait_on_a_fired_event_replays_through_a_zero_delay_timer():
    sim = Simulator()
    done = sim.event().succeed(7)
    sim.run()
    seen = []
    waited = sim.wait(done, lambda ev: seen.append((ev.value, sim.now)))
    assert waited is not done and not seen
    sim.run()
    assert seen == [(7, 0)]


def test_a_continuation_raises_the_failure_of_its_event():
    sim = Simulator()
    failed = sim.event()

    def cont(ev):
        if not ev.ok:
            raise failure(ev)

    sim.wait(failed, cont)
    failed.fail("not an exception")
    with pytest.raises(SimulationError, match="non-exception value"):
        sim.run()
