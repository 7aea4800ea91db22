"""Discrete-event simulation kernel.

This is the substrate every hardware model in the reproduction runs on.
It is a small, deterministic, generator-based event loop in the style of
SimPy: *processes* are Python generators that ``yield`` events; the
kernel resumes a process when the event it waits on fires.  The
per-command hot paths use slotted records with continuations instead
(:meth:`Simulator.wait`).

Simulated time is an integer number of **nanoseconds**.  Using integers
keeps event ordering exact and runs reproducible.

Scheduling
----------
Events fire in the total order ``(time, seq)``: ``seq`` is a global
counter taken when an event is scheduled, so same-instant events fire
FIFO.  Future events wait in one binary heap of ``(time, seq, event)``
tuples.

**An event that no one can observe is never scheduled.**  A process
started with :meth:`Simulator.spawn` has no handle, so nothing can wait
on its completion: it finishes without a completion event.  Callers
that never wait on a put, a posted write or an interrupt use the
posted forms (:meth:`~repro.sim.resources.Store.post`,
``Port.post_write``, ``MSIXTable.post_vector``), which skip the
completion event instead of scheduling one that would fire with no
callbacks.  Such an event would run nothing, so leaving it out cannot
move any other callback in the dispatch order.

Fast path
---------
**Two phases per instant.**  Every event due at an instant was
scheduled before it, so the loop dispatches all of them first (heap
order, the *timer phase*), then everything scheduled during the
instant (FIFO, the *completion phase*).  A zero-delay completion event
therefore does real work: the process it resumes continues after every
timer and link leg of its instant, which decides, for example, which of
two same-instant transfers a link serializes first.

**No event that only relays.**  An event earns its dispatch when
something happens at its instant that could not have happened earlier:
a link leg arrives, a contended server is handed over, a process
resumes after a delay.  An event whose only job is to hand control to
the next step is not scheduled, and where the hand-off also placed the
next step in the completion phase, the step is placed there without
it.  The primitives:

* :meth:`~repro.sim.resources.Resource.try_acquire` takes a free
  server with no event; the caller yields ``acquire()`` only when it
  returns False.  A queued waiter means every server is held, so the
  FIFO grant order is that of ``acquire`` alone.
* ``spawn(gen, name, delay=d)`` first resumes the generator at
  ``now + d``, replacing "spawn, then ``yield timeout(d)`` as the first
  statement".
* :meth:`Simulator.start` runs a process's first step inside the
  caller, with no bootstrap event; an exception in that step still
  surfaces out of :meth:`Simulator.run`, never into the caller.
* ``BandwidthLink.transfer(n, extra_ns=a)`` arrives ``a`` ns after the
  last byte, so a fixed delay after arrival rides the leg's own
  deadline instead of a second timeout.
* :meth:`Simulator.completion` marks a pending leg to be dispatched in
  the completion phase, and :meth:`Simulator.redirect` lets such a leg
  stand in for a handle already given out.  A DMA's last leg *is* its
  completion: the waiter resumes from the leg itself, where a
  completion event fired by the leg would have resumed it.
* :meth:`Simulator.wait` attaches a *continuation* to an event by the
  rule a process waits by (append, or replay a fired event through a
  zero-delay timer; a failure is raised, see :func:`failure`).  The
  state a command keeps across the media wait lives in one slotted
  record per layer that is itself the continuation (the drive's
  ``DriveCommand`` and its flash ``_MediaOp``, the fio ``FioWorker``),
  not in a stack of generator frames.  A record's steps schedule their
  events in the order a process's ``yield``s would, so the choice moves
  no event's time or sequence number.

A bootstrap stays where it orders: the engine's per-command process
(``_process_cmd``) and the drive's ``DriveCommand`` start with a DMA,
from a zero-delay timer; starting them inline in the timer phase would
let that DMA overtake same-instant transfers.

The per-event cost of this loop is the wall-clock of the whole repo, so
the dispatch machinery is deliberately flat:

* **Now-bucket**: many schedules are zero-delay (completion
  deliveries, process bootstraps, replays).  Those bypass the heap
  into a FIFO *bucket for the current instant* holding bare events
  (the sequence number rides on ``event._seq``); only genuinely future
  events pay the heap push.
* **Inlined dispatch**: :meth:`Simulator.run` and
  :meth:`Simulator.step` run callbacks inline rather than bouncing
  through per-event helper calls.
* **Object pooling**: processed :class:`Timeout` objects (the dominant
  ``yield sim.timeout(d)`` pattern), generic events handed out by
  :meth:`Simulator.pooled_event` / :meth:`Simulator.fired_event`, and
  fire-and-forget processes started with :meth:`Simulator.spawn` or
  :meth:`Simulator.start` are
  all recycled through per-simulator free lists (a spawned process
  the moment its generator returns), so steady-state dispatch
  allocates nothing.  The pooling invariant: **a pooled object must
  not be referenced after its event is dispatched** — no
  reading ``.value`` later, no late ``cancel()``, no stashing it in a
  container that outlives the dispatch.  Events referenced by
  conditions or by ``run(until=event)`` are pinned and never recycled;
  call :meth:`Event.pin` to keep one alive for inspection.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from ..obs.metrics import MetricsRegistry

__all__ = [
    "failure",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "Simulator",
]

#: recycled-object free list caps per simulator (bound idle memory)
_TIMEOUT_POOL_CAP = 512
_EVENT_POOL_CAP = 1024
_PROCESS_POOL_CAP = 512


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A happening at a point in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` schedules it; once the kernel pops it from the event
    queue its callbacks run and any waiting processes resume.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "_defunct", "_pinned", "_recycle", "_seq",
                 "_late", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defunct = False
        self._pinned = False
        self._recycle = 0
        self._late = False
        self.name = name

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def defunct(self) -> bool:
        """True once the event was cancelled; its callbacks never run."""
        return self._defunct

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"value of untriggered event {self!r}")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Schedule this event to fire successfully after ``delay`` ns."""
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        if delay == 0:
            sim._seq = seq = sim._seq + 1
            self._seq = seq
            sim._nowq.append(self)
        else:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay})")
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim.now + int(delay), seq, self))
        return self

    def fail(self, exc: Any, delay: int = 0) -> "Event":
        """Schedule this event to fire as a failure.

        ``exc`` is usually an exception instance; any other value is
        legal and is wrapped in :class:`SimulationError` at the point
        it must be *raised* (a waiting process, ``run(until=...)``), so
        a plain-value failure reads as a clean simulation error instead
        of ``TypeError: exceptions must derive from BaseException``.
        """
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._ok = False
        self._value = exc
        sim = self.sim
        if delay == 0:
            sim._seq = seq = sim._seq + 1
            self._seq = seq
            sim._nowq.append(self)
        else:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay})")
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim.now + int(delay), seq, self))
        return self

    def cancel(self) -> None:
        """Mark this event defunct: when popped, its callbacks are
        skipped instead of run.  Cancelling is idempotent and may happen
        before or after triggering (but not once processed)."""
        if self._processed:
            raise SimulationError(f"cannot cancel processed event {self!r}")
        self._defunct = True

    def pin(self) -> "Event":
        """Exempt this event from kernel recycling (see module docs)."""
        self._pinned = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        if self._defunct:
            state = "defunct"
        label = self.name or type(self).__name__
        return f"<{label} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    Instances handed out by :meth:`Simulator.timeout` are pooled: after
    the timeout fires and its callbacks run, the object may be recycled
    to back a later ``timeout()`` call.  Conditions pin their members,
    and ``run(until=...)`` pins its target, so the ordinary patterns
    are safe; call :meth:`Event.pin` to keep one alive for inspection.
    """

    __slots__ = ("_delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # inlined Event.__init__ + succeed(): this runs for every
        # simulated latency hop, so it must not pay two super() calls
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defunct = False
        self._pinned = False
        self._recycle = 1
        self._late = False
        self._delay = delay
        self.name = "Timeout"
        sim._seq = seq = sim._seq + 1
        if delay == 0:
            self._seq = seq
            sim._nowq.append(self)
        else:
            heappush(sim._heap, (sim.now + int(delay), seq, self))

    @property
    def delay(self) -> int:
        return self._delay


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields :class:`Event` instances.  When a yielded event
    fires OK, the generator resumes with ``event.value``; when it fires
    failed, the exception is thrown into the generator.
    """

    __slots__ = ("_generator", "_waiting_on", "_rcb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process target {generator!r} is not a generator")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # one bound-method allocation for the lifetime of the process
        # (every wait re-uses it as the callback)
        self._rcb = self._resume
        # Bootstrap: resume once at the current time (a pooled
        # zero-delay timeout doubles as the init poke).
        init = sim.timeout(0)
        init.callbacks.append(self._rcb)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        waited = self._waiting_on
        if waited is not None and waited.callbacks is not None:
            try:
                waited.callbacks.remove(self._rcb)
            except ValueError:
                pass
        self._waiting_on = None
        poke = Event(self.sim, name="interrupt")
        poke.callbacks.append(self._rcb)
        poke.fail(Interrupt(cause))

    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        sim = self.sim
        try:
            if trigger._ok:
                target = self._generator.send(trigger._value)
            else:
                target = self._generator.throw(failure(trigger))
        except StopIteration as stop:
            if self._recycle:
                # spawned: no handle exists, so nothing can observe the
                # completion — recycle instead of scheduling a no-op
                sim._release_process(self)
            else:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            if self._recycle:
                if sim.strict:
                    raise
                sim._release_process(self)
                return
            if self.callbacks or not sim.strict:
                # someone is waiting (or the user opted out of strict
                # crash-on-unobserved): deliver the failure to them
                self.fail(exc)
                return
            raise

        if not isinstance(target, Event):
            self._generator.close()
            raise SimulationError(
                f"process {self.name} yielded {target!r}; processes must yield Event instances"
            )
        if target.sim is not sim:
            raise SimulationError("cannot wait on an event from a different simulator")
        self._waiting_on = sim.wait(target, self._rcb)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str):
        super().__init__(sim, name=name)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev.sim is not self.sim:
                raise SimulationError("condition spans multiple simulators")
            # the condition reads member state after they fire: exempt
            # them from recycling
            ev._pinned = True
            if ev._processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _results(self) -> dict:
        return {ev: ev._value for ev in self._events if ev._processed and ev.ok}

    def _check(self, ev: Event) -> None:
        raise NotImplementedError

    def __reduce__(self):  # pragma: no cover - conditions are transient
        raise TypeError(f"{type(self).__name__} is not picklable")


class AnyOf(_Condition):
    """Fires when the first of the given events fires."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, name="AnyOf")

    def _check(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev._value)
        else:
            self.succeed(self._results())


class AllOf(_Condition):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, name="AllOf")

    def _check(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev._value)
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed(self._results())


def _reraise(event: Event) -> None:
    """Callback re-raising a failure out of the dispatch loop."""
    raise event._value


def failure(event: Event) -> BaseException:
    """The exception a failed ``event`` raises in whatever waited on it:
    thrown into a process, or raised by a continuation (see
    :meth:`Simulator.wait`).  A plain-value failure reads as a clean
    :class:`SimulationError`."""
    err = event._value
    if isinstance(err, BaseException):
        return err
    return SimulationError(f"event failed with non-exception value {err!r}")


class Simulator:
    """The event loop: a now-bucket FIFO plus a binary heap of future
    events, dispatched in ``(time, seq)`` order.

    Parameters
    ----------
    strict:
        When True (default), an uncaught exception inside a process
        fails the process event instead of propagating, unless nothing
        waits on it.

    Attributes
    ----------
    events_processed:
        Count of dispatched events since construction — the numerator
        of the ``repro bench`` events/sec figure.
    now:
        Current simulated time in nanoseconds (read-only by convention;
        only the dispatch loop advances it).
    """

    def __init__(self, strict: bool = True):
        self.now: int = 0
        #: zero-delay events at the current instant, FIFO (seq on event)
        self._nowq: deque[Event] = deque()
        #: future events as (time, seq, event)
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._timeout_pool: list[Timeout] = []
        self._event_pool: list[Event] = []
        self._process_pool: list[Process] = []
        self.events_processed = 0
        self.strict = strict
        #: the world's instruments, set once by :meth:`arm`; every part
        #: built on this simulator caches its own at construction.  A
        #: world always has a registry: counters-only until armed with
        #: another one, while checks and faults stay None = dormant.
        self.obs = MetricsRegistry(mode="counters")
        self.faults = None
        self.check_context = None
        #: the kernel checker's dispatch hook; None = dormant, zero-cost
        self.checks = None
        #: the never-scheduled trigger :meth:`start` resumes a process with
        self._kick = Event(self, name="start")
        self._kick._triggered = True

    # -- instruments ------------------------------------------------------
    def arm(self, obs=None, checks=None, faults=None) -> None:
        """Arm the world's instruments: a ``MetricsRegistry`` (None keeps
        the world's counters-only one), a ``CheckContext`` and a
        ``FaultInjector`` (None = dormant).

        Parts read them when they are constructed, so a world arms once,
        before it builds anything."""
        self.obs = obs or self.obs
        self.faults = faults
        self.check_context = checks
        self.checks = self.checker("kernel")

    def checker(self, name: str):
        """The armed ``CheckContext`` if it runs checker ``name``, else None."""
        ctx = self.check_context
        return ctx if ctx is not None and name in ctx.enabled else None

    # -- event factories --------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def pooled_event(self, name: str = "") -> Event:
        """An :class:`Event` that is recycled after dispatch.

        For kernel-internal and resource-layer use: the caller must
        guarantee nothing references the event once its callbacks have
        run (see the module pooling invariant)."""
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev._value = None
            ev._ok = True
            ev._triggered = False
            ev._processed = False
            ev.name = name
            return ev
        ev = Event(self, name)
        ev._recycle = 2
        return ev

    def fired_event(self, value: Any = None, name: str = "") -> Event:
        """A pooled event already scheduled to succeed at the current
        instant — the one-call form of ``pooled_event().succeed(v)``."""
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev._ok = True
            ev.name = name
        else:
            ev = Event(self, name)
            ev._recycle = 2
        ev._value = value
        ev._triggered = True
        ev._processed = False
        self._seq = seq = self._seq + 1
        ev._seq = seq
        self._nowq.append(ev)
        return ev

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay}")
            t = pool.pop()
            # minimal reset: pool entries are processed timeouts, so
            # _ok/_defunct/_pinned/_triggered are already in the right
            # state and callbacks is already the empty list
            t._value = value
            t._processed = False
            t._late = False
            t._delay = delay
            self._seq = seq = self._seq + 1
            if delay == 0:
                t._seq = seq
                self._nowq.append(t)
            else:
                heappush(self._heap, (self.now + int(delay), seq, t))
            return t
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a process and return its handle, an event that fires
        when the generator returns.  Use :meth:`spawn` when the handle
        would be thrown away."""
        return Process(self, generator, name)

    def spawn(self, generator: Generator, name: str = "", delay: int = 0) -> None:
        """Start a fire-and-forget process whose bookkeeping object is
        recycled when it finishes; its first step runs at
        ``now + delay``.

        Unlike :meth:`process` this returns no handle — by design: with
        no handle, nothing can wait on the process, so it finishes
        without scheduling a completion event and its object goes
        straight back to a free list.  An uncaught exception inside it
        still propagates out of :meth:`run` on a strict simulator.
        """
        p = self._pooled_process(generator, name)
        self.timeout(delay).callbacks.append(p._rcb)

    def start(self, generator: Generator, name: str = "") -> None:
        """:meth:`spawn` whose first step runs now, inside the caller.

        For a per-command process whose first act schedules something
        (a DMA, a timed stage): the bootstrap event :meth:`spawn` would
        dispatch only to relay control to that first act.  An uncaught
        exception in the first step never reaches the caller; on a
        strict simulator it is re-raised out of :meth:`run` at the
        current instant, as a spawned process's would be.
        """
        p = self._pooled_process(generator, name)
        try:
            p._resume(self._kick)
        except BaseException as exc:
            poke = Event(self, name="start-failure")
            poke.callbacks.append(_reraise)
            poke.fail(exc)

    def _pooled_process(self, generator: Generator, name: str) -> Process:
        """A recycled (or fresh) fire-and-forget process, not yet run."""
        pool = self._process_pool
        if pool:
            p = pool.pop()
            p.name = name
        else:
            p = Process.__new__(Process)
            p.sim = self
            p.callbacks = []
            p._value = None
            p._ok = True
            p._triggered = False
            p._processed = False
            p._defunct = False
            p._pinned = False
            p._late = False
            p._recycle = 3
            p.name = name
            p._rcb = p._resume
        p._generator = generator
        p._waiting_on = None
        return p

    def _release_process(self, p: Process) -> None:
        """Return a finished spawned process to the free list."""
        p._generator = None
        pool = self._process_pool
        if len(pool) < _PROCESS_POOL_CAP:
            pool.append(p)

    def completion(self, event: Event) -> Event:
        """Mark a pending timer or link leg as a *completion* and return
        it: when due, it is dispatched in the completion phase of its
        instant (the back of the now-queue), exactly where a zero-delay
        completion event that it fired would have run.  A process can
        then wait on the leg itself and resume in the same place."""
        event._late = True
        return event

    def redirect(self, event: Event, to: Event) -> None:
        """Let ``to`` stand in for the untriggered ``event``.

        ``event``'s callbacks move to ``to`` and run when it fires,
        seeing its value; a process waiting on ``event`` now waits on
        ``to``, so :meth:`Process.interrupt` still finds it.  A pending
        timer or link leg ``to`` becomes a :meth:`completion`, so the
        callbacks run where ``event``, fired by ``to``, would have run
        them.  ``event`` will never fire and goes back to its free
        list.  A pinned ``event`` (a condition member, a
        ``run(until=...)`` target) is read after it fires, so it is
        relayed instead: it fires with ``to``'s outcome when ``to``
        does.
        """
        if event._pinned:
            to.callbacks.append(lambda ev: (event.succeed(ev._value) if ev._ok
                                            else event.fail(ev._value)))
            return
        if to._recycle == 1:
            self.completion(to)
        callbacks = event.callbacks
        if callbacks:
            event.callbacks = []
            for cb in callbacks:
                owner = getattr(cb, "__self__", None)
                if isinstance(owner, Process) and owner._waiting_on is event:
                    owner._waiting_on = to
            if to.callbacks:
                to.callbacks.extend(callbacks)
            else:
                to.callbacks = callbacks
        if event._recycle:
            self._return_to_pool(event)

    def wait(self, event: Event, callback: Callable[[Event], None]) -> Event:
        """Run ``callback(event)`` when ``event`` fires; returns the event
        actually waited on.

        This is how a process waits on what it yields, and how an
        in-flight record waits with a *continuation*, a callback that
        picks the record's next step from its state.  An event that has
        already fired is replayed through a zero-delay timer (a failure
        through a failed event), so the callback runs at this instant,
        in the completion phase, as it would had the event fired now.
        A continuation that receives a failed event raises
        :func:`failure` of it, as a process with no handler would.
        """
        if event._processed:
            if event._ok:
                poke: Event = self.timeout(0, value=event._value)
            else:
                poke = Event(self, name="replay")
                poke.fail(event._value)
            poke.callbacks.append(callback)
            return poke
        event.callbacks.append(callback)
        return event

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- dispatch ----------------------------------------------------------
    def _pop_next(self) -> Optional[Event]:
        """The next live event in (time, seq) order, advancing the
        clock; None when nothing is scheduled.  Defunct events are
        discarded without running their callbacks."""
        nowq = self._nowq
        heap = self._heap
        while True:
            if nowq:
                if heap and heap[0][0] <= self.now and heap[0][1] < nowq[0]._seq:
                    event = heappop(heap)[2]
                    if event._late:
                        self._to_completion_phase(event)
                        continue
                else:
                    event = nowq.popleft()
            elif heap:
                when, _, event = heappop(heap)
                self.now = when
                if event._late:
                    self._to_completion_phase(event)
                    continue
            else:
                return None
            if not event._defunct:
                return event

    def _to_completion_phase(self, event: Event) -> None:
        """Move a due :meth:`completion` to the back of the now-queue;
        it is dispatched there, once."""
        event._late = False
        self._seq = seq = self._seq + 1
        event._seq = seq
        self._nowq.append(event)

    def _return_to_pool(self, event: Event) -> None:
        if event._recycle == 1:
            pool = self._timeout_pool
            if len(pool) < _TIMEOUT_POOL_CAP:
                pool.append(event)
        else:
            pool = self._event_pool
            if len(pool) < _EVENT_POOL_CAP:
                pool.append(event)

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`SimulationError` when nothing is scheduled;
        cancelled (defunct) events are skipped, not dispatched.
        """
        event = self._pop_next()
        if event is None:
            raise SimulationError("cannot step: no events are scheduled")
        if self.checks is not None:
            self.checks.on_event_dispatch(self, event)
        self.events_processed += 1
        event._processed = True
        callbacks = event.callbacks
        if callbacks:
            event.callbacks = []
            for cb in callbacks:
                cb(event)
        if event._recycle and not event._pinned:
            self._return_to_pool(event)

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if none is queued."""
        if self._nowq:
            return self.now
        return self._heap[0][0] if self._heap else None

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), an
        integer time, or an :class:`Event` (run until it fires, and
        return / raise its value).
        """
        stop: Optional[Event] = None
        horizon: Optional[int] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                stop._pinned = True
            else:
                horizon = int(until)
                if horizon < self.now:
                    raise SimulationError(
                        f"cannot run until {horizon} < now {self.now}"
                    )

        # The hot loop.  This is Simulator.step() inlined — every
        # function call removed here is removed a million times per
        # reproduced figure.
        nowq = self._nowq
        heap = self._heap
        tpool = self._timeout_pool
        epool = self._event_pool
        checks = self.checks
        now = self.now
        dispatched = 0
        try:
            while True:
                if stop is not None and stop._processed:
                    break
                if nowq:
                    if heap and heap[0][0] <= now and heap[0][1] < nowq[0]._seq:
                        event = heappop(heap)[2]
                        if event._late:
                            self._to_completion_phase(event)
                            continue
                    else:
                        event = nowq.popleft()
                elif heap:
                    when = heap[0][0]
                    if horizon is not None and when > horizon:
                        break
                    event = heappop(heap)[2]
                    self.now = now = when
                    if event._late:
                        self._to_completion_phase(event)
                        continue
                else:
                    if stop is not None:
                        raise SimulationError(
                            f"simulation ran out of events before {stop!r} fired"
                        )
                    break
                if event._defunct:
                    continue
                if checks is not None:
                    checks.on_event_dispatch(self, event)
                dispatched += 1
                event._processed = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
                r = event._recycle
                if r and not event._pinned:
                    if r == 1:
                        if len(tpool) < _TIMEOUT_POOL_CAP:
                            tpool.append(event)
                    elif len(epool) < _EVENT_POOL_CAP:
                        epool.append(event)
        finally:
            self.events_processed += dispatched

        if horizon is not None:
            self.now = horizon
            return None
        if stop is not None:
            if stop._ok:
                return stop._value
            err = stop._value
            if isinstance(err, BaseException):
                raise err
            # a process can fail its event with a bare value through
            # Event internals; surface it as a kernel error instead of
            # "TypeError: exceptions must derive from BaseException"
            raise SimulationError(
                f"event {stop!r} failed with non-exception value {err!r}"
            )
        return None
