"""Dispatch order of the heap scheduler: far-future events, same-tick
FIFO, inserts made during a dispatch, cancelled events, and ``peek``."""

from repro.sim import Simulator

#: far enough out that many ordinary hops fit before it (~1 ms)
FAR_NS = 1 << 20


def test_far_future_event_fires_at_exact_time():
    sim = Simulator()
    fired = []
    t = sim.timeout(FAR_NS * 3 + 17)
    t.callbacks.append(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == [FAR_NS * 3 + 17]


def test_events_far_apart_fire_in_time_order():
    """Near events are not delayed by far ones, whatever the order in
    which they were scheduled."""
    sim = Simulator()
    fired = []
    times = [3, FAR_NS - 1, FAR_NS + 1, FAR_NS * 2 + 9,
             FAR_NS * 10, 40, FAR_NS * 10 + 1]
    for when in times:
        t = sim.timeout(when)
        t.callbacks.append(lambda ev, w=when: fired.append((sim.now, w)))
    sim.run()
    assert fired == [(w, w) for w in sorted(times)]


def test_same_tick_future_events_keep_insertion_order():
    sim = Simulator()
    fired = []
    for tag in ("first", "second"):
        t = sim.timeout(FAR_NS * 2)
        t.callbacks.append(lambda ev, tag=tag: fired.append(tag))
    sim.run()
    assert fired == ["first", "second"]


def test_insert_during_dispatch_stays_ordered():
    """A callback scheduling an event between two already-queued ones
    must not lose it or run it before the earlier one."""
    sim = Simulator()
    fired = []

    def first(ev):
        fired.append("first")
        later = sim.timeout(1283 - sim.now)
        later.callbacks.append(lambda e: fired.append("injected"))

    t1 = sim.timeout(1281)
    t1.callbacks.append(first)
    t2 = sim.timeout(1282)
    t2.callbacks.append(lambda ev: fired.append("second"))
    sim.run()
    assert fired == ["first", "second", "injected"]


def test_cancelled_event_skipped_without_dispatch():
    sim = Simulator()
    fired = []
    doomed = sim.event(name="doomed")
    doomed.succeed("never", delay=5)
    live = sim.event(name="live")
    live.succeed("yes", delay=5)
    live.callbacks.append(lambda ev: fired.append(ev.value))
    doomed.callbacks.append(lambda ev: fired.append("BUG"))
    doomed.cancel()
    processed_before = sim.events_processed
    sim.run()
    assert fired == ["yes"]
    # the defunct event was discarded, never counted as dispatched
    assert sim.events_processed == processed_before + 1


def test_cancelled_far_future_event_is_skipped():
    sim = Simulator()
    doomed = sim.event(name="far-doomed")
    doomed.succeed(delay=FAR_NS + 50)
    anchor = sim.timeout(FAR_NS + 60)
    doomed.cancel()
    sim.run()
    assert sim.now == FAR_NS + 60
    assert anchor.processed and not doomed.processed


def test_peek_reports_earliest_across_now_bucket_and_heap():
    sim = Simulator()
    assert sim.peek() is None
    sim.timeout(FAR_NS + 7)
    assert sim.peek() == FAR_NS + 7
    sim.timeout(12)                       # an earlier heap event wins
    assert sim.peek() == 12
    sim.timeout(0)                        # the now-bucket wins
    assert sim.peek() == 0


def test_mixed_workload_dispatches_in_time_then_schedule_order():
    """Same-tick timeouts, zero-delay events and events scheduled from
    inside a process all fire in exact (time, schedule order) — the
    total order the repo's byte-identity guarantee rests on."""
    sim = Simulator()
    fired = []
    scheduled = {}

    def note(tag, when):
        scheduled[tag] = (when, len(scheduled))
        return lambda ev: fired.append(tag)

    for i in range(40):
        # many collisions: delays repeat so events share ticks
        delay = (i * 7) % 11
        sim.timeout(delay).callbacks.append(note(f"t{i}", delay))
    for i in range(10):
        ev = sim.event()
        ev.succeed(delay=0)
        ev.callbacks.append(note(f"z{i}", 0))

    def proc():
        for i in range(5):
            yield sim.timeout(3)
            delay = (i * 5) % 11
            chained = sim.timeout(delay)
            chained.callbacks.append(note(f"c{i}", sim.now + delay))

    sim.process(proc(), name="mixer")
    sim.run()
    assert len(fired) == len(scheduled) == 55
    assert fired == sorted(scheduled, key=scheduled.get)
