"""Shared-resource primitives for the simulation kernel.

These model the contention points of the hardware: finite servers
(:class:`Resource`), mailboxes/queues (:class:`Store`), serialized
bandwidth pipes (:class:`BandwidthLink`), and rate limiters
(:class:`TokenBucket`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Optional

from .kernel import Event, SimulationError, Simulator

__all__ = ["Resource", "Store", "BandwidthLink", "TokenBucket"]


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue.

    Usage from a process::

        if not resource.try_acquire():
            yield resource.acquire()
        ...
        resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._acquire_name = "acquire:" + name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # busy-time integral for utilization accounting
        self._busy_area = 0
        self._last_change = sim.now

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_area += self._in_use * (now - self._last_change)
        self._last_change = now

    def utilization(self, since: int = 0) -> float:
        """Average fraction of capacity busy over [since, now]."""
        self._account()
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self._busy_area / (elapsed * self.capacity)

    def try_acquire(self) -> bool:
        """Take a free server now, with no event; False when every
        server is held.  A queued waiter implies every server is held,
        so this never overtakes one: grants stay FIFO."""
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            return True
        return False

    def acquire(self) -> Event:
        # grant events are pooled: callers yield them immediately and
        # never hold them past dispatch (see kernel pooling invariant)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            return self.sim.fired_event(self, name=self._acquire_name)
        ev = self.sim.pooled_event(name=self._acquire_name)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name}")
        if self._waiters:
            # Hand the server straight to the next waiter; in_use unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self._account()
            self._in_use -= 1


class Store:
    """An unbounded (or bounded) FIFO queue of items.

    ``put`` never blocks when unbounded; ``get`` returns an event that
    fires with the next item.  ``post`` is ``put`` without the
    completion event, for callers that discard it.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "store"):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._put_name = "put:" + name
        self._get_name = "get:" + name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Optional[Event], Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the returned event fires once it is in."""
        if self._offer(item):
            return self.sim.fired_event(item, name=self._put_name)
        ev = self.sim.pooled_event(name=self._put_name)
        self._putters.append((ev, item))
        return ev

    def post(self, item: Any) -> None:
        """:meth:`put` for callers that never wait on the put: the same
        FIFO delivery, minus a completion event no one would observe.
        On a full bounded store the item waits for room like a put."""
        if not self._offer(item):
            self._putters.append((None, item))

    def _offer(self, item: Any) -> bool:
        """Hand ``item`` to the oldest getter or enqueue it; False when
        a bounded store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return True
        return False

    def get(self) -> Event:
        if self._items:
            ev = self.sim.fired_event(self._items.popleft(), name=self._get_name)
            if self._putters:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                if put_ev is not None:
                    put_ev.succeed(item)
            return ev
        ev = self.sim.pooled_event(name=self._get_name)
        self._getters.append(ev)
        return ev


class BandwidthLink:
    """A serialized pipe with finite bandwidth and propagation delay.

    Models a PCIe link direction, an SSD's internal data bus, or a DRAM
    channel.  Transfers are serialized FIFO at ``bytes_per_ns``; each
    transfer additionally incurs ``propagation_ns`` of latency that is
    pipelined (does not occupy the link).

    ``transfer(nbytes)`` returns an event firing when the last byte
    arrives at the far end.
    """

    def __init__(
        self,
        sim: Simulator,
        bytes_per_sec: float,
        propagation_ns: int = 0,
        name: str = "link",
    ):
        if bytes_per_sec <= 0:
            raise SimulationError("link bandwidth must be positive")
        self.sim = sim
        self.bytes_per_sec = float(bytes_per_sec)
        self.propagation_ns = int(propagation_ns)
        self.name = name
        self._xfer_name = "xfer:" + name
        # Time at which the link becomes free to start a new serialization.
        self._free_at = sim.now
        self._bytes_moved = 0
        # serialization times repeat over a handful of transfer sizes;
        # invalidated by set_rate()
        self._ser_cache: dict[int, int] = {}

    @property
    def bytes_moved(self) -> int:
        return self._bytes_moved

    def transfer(self, nbytes: int, value: Any = None, extra_ns: int = 0) -> Event:
        """Move ``nbytes`` through the link; event fires at arrival time
        plus ``extra_ns`` (a fixed delay after arrival, such as the
        target's access time, rides the leg's own deadline)."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        ns = self._ser_cache.get(nbytes)
        if ns is None:
            # ceiling, not rounding: a transfer must never finish early,
            # or short transfers would beat the configured line rate
            ns = math.ceil(nbytes * 1e9 / self.bytes_per_sec)
            self._ser_cache[nbytes] = ns
        now = self.sim.now
        start = now if now > self._free_at else self._free_at
        done_serializing = start + ns
        self._free_at = done_serializing
        self._bytes_moved += nbytes
        # pooled timeout: a transfer is exactly "fire at T with value",
        # so it rides the recycled-Timeout fast path
        return self.sim.timeout(
            done_serializing + self.propagation_ns + extra_ns - now, value)

    def busy_until(self) -> int:
        return self._free_at

    def stall(self, duration_ns: int) -> None:
        """Hold the link busy for ``duration_ns`` from now (fault
        injection: link down / retraining).  In-flight serializations
        are unaffected; new transfers queue behind the stall."""
        if duration_ns < 0:
            raise SimulationError(f"negative stall duration {duration_ns}")
        self._free_at = max(self._free_at, self.sim.now + int(duration_ns))

    def set_rate(self, bytes_per_sec: float) -> None:
        """Change the line rate (fault injection: width degrade)."""
        if bytes_per_sec <= 0:
            raise SimulationError("link bandwidth must be positive")
        self.bytes_per_sec = float(bytes_per_sec)
        self._ser_cache.clear()

    def throughput(self, since: int = 0) -> float:
        """Average bytes/sec moved over [since, now]."""
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self._bytes_moved * 1e9 / elapsed


class TokenBucket:
    """A token-bucket rate limiter (QoS building block).

    Tokens accrue at ``rate_per_sec`` up to ``burst``.  ``consume(n)``
    returns an event that fires once ``n`` tokens are available, FIFO.
    A rate of ``None`` means unlimited (events fire immediately).
    """

    def __init__(
        self,
        sim: Simulator,
        rate_per_sec: Optional[float],
        burst: float,
        name: str = "bucket",
    ):
        self.sim = sim
        self.rate_per_sec = rate_per_sec
        self.burst = float(burst)
        self.name = name
        self._tokens_name = "tokens:" + name
        self._tokens = float(burst)
        self._last_refill = sim.now
        self._waiters: Deque[tuple[Event, float]] = deque()
        self._drain_active = False

    @property
    def unlimited(self) -> bool:
        return self.rate_per_sec is None

    def _refill(self) -> None:
        now = self.sim.now
        if self.rate_per_sec:
            self._tokens = min(
                self.burst,
                self._tokens + (now - self._last_refill) * self.rate_per_sec / 1e9,
            )
        self._last_refill = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def would_block(self, amount: float) -> bool:
        """True if a consume(amount) now would have to wait."""
        if self.unlimited:
            return False
        return bool(self._waiters) or self.tokens < amount

    def consume(self, amount: float) -> Event:
        if self.unlimited:
            return self.sim.fired_event(name=self._tokens_name)
        self._refill()
        if not self._waiters and self._tokens >= amount:
            self._tokens -= amount
            return self.sim.fired_event(name=self._tokens_name)
        ev = self.sim.pooled_event(name=self._tokens_name)
        self._waiters.append((ev, amount))
        self._arm_drain()
        return ev

    def _arm_drain(self) -> None:
        if self._drain_active or not self._waiters:
            return
        self._drain_active = True
        _, amount = self._waiters[0]
        self._refill()
        deficit = max(0.0, amount - self._tokens)
        assert self.rate_per_sec is not None
        delay = int(deficit * 1e9 / self.rate_per_sec) + 1
        wake = self.sim.timeout(delay)
        wake.callbacks.append(self._drain)

    def _drain(self, _ev: Event) -> None:
        self._drain_active = False
        self._refill()
        while self._waiters:
            ev, amount = self._waiters[0]
            if self._tokens >= amount:
                self._tokens -= amount
                self._waiters.popleft()
                ev.succeed()
            else:
                break
        self._arm_drain()
