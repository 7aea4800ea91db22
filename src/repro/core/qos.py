"""BMS-Engine QoS module — paper Fig. 5.

One command buffer per namespace.  On every incoming command the
engine checks whether the namespace's current I/O rate has reached its
threshold; if so, the command goes into the namespace's command buffer
and the *command dispatcher* reschedules it when budget accrues.
Commands under threshold pass straight through.

Limits are token buckets on both IOPS and bandwidth; either may be
unlimited.  Used for the paper's isolation/fairness claims (Fig. 11/12)
and for the QoS on/off ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs import MetricsRegistry
from ..sim import Event, Simulator, Store, TokenBucket

__all__ = ["QoSLimits", "QoSModule"]


@dataclass(frozen=True)
class QoSLimits:
    """Per-namespace thresholds; ``None`` means unlimited."""

    max_iops: Optional[float] = None
    max_bytes_per_sec: Optional[float] = None
    burst_ios: float = 64.0
    burst_bytes: float = 4 * 1024 * 1024

    @property
    def unlimited(self) -> bool:
        return self.max_iops is None and self.max_bytes_per_sec is None

    @classmethod
    def from_mi_params(cls, p: dict) -> Optional["QoSLimits"]:
        """The limits an NVMe-MI request carries (``max_iops``,
        ``max_mbps``); None when it names neither."""
        if "max_iops" not in p and "max_mbps" not in p:
            return None
        return cls(max_iops=p.get("max_iops"),
                   max_bytes_per_sec=p["max_mbps"] * 1e6 if p.get("max_mbps") else None)


class _NamespaceQoS:
    """Buckets + command buffer + dispatcher for one namespace."""

    def __init__(self, sim: Simulator, ns_key: str, limits: QoSLimits,
                 obs: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.ns_key = ns_key
        self.obs = obs
        self.limits = limits
        self.iops_bucket = TokenBucket(
            sim, limits.max_iops, limits.burst_ios, name=f"qos.{ns_key}.iops"
        )
        self.bw_bucket = TokenBucket(
            sim, limits.max_bytes_per_sec, limits.burst_bytes, name=f"qos.{ns_key}.bw"
        )
        self.buffer: Store = Store(sim, name=f"qos.{ns_key}.cmdbuf")
        self.buffered_total = 0
        self.passed_total = 0
        self._dispatcher_running = False
        #: bound CheckContext (qos checker); None = dormant, zero-cost
        self.checks = None
        if obs is not None:
            self._c_passed = obs.counter("qos_passed", ns=ns_key)
            self._c_buffered = obs.counter("qos_buffered", ns=ns_key)
            self._g_depth = obs.gauge("qos_buffer_depth", ns=ns_key)

    def over_threshold(self, nbytes: int) -> bool:
        return self.iops_bucket.would_block(1.0) or self.bw_bucket.would_block(nbytes)

    def admit(self, nbytes: int, span=None) -> Optional[Event]:
        """Event that fires when the command may proceed, or None when
        it passes straight through (under threshold)."""
        seq = None
        if self.checks is not None:
            seq = self.checks.on_qos_admit(self, span=span)
        # The dispatcher check closes an overtaking window: after the
        # dispatcher's ``buffer.get()`` succeeds, the buffer is briefly
        # empty while the dequeued command still waits on its token
        # bucket; without the flag a same-instant arrival would see an
        # empty buffer, take the fast path, and steal its tokens.
        if (
            not self._dispatcher_running
            and len(self.buffer) == 0
            and not self.over_threshold(nbytes)
        ):
            # fast path: consume and pass through
            self.iops_bucket.consume(1.0)
            self.bw_bucket.consume(nbytes)
            self.passed_total += 1
            if self.obs is not None:
                self._c_passed.inc()
            if self.checks is not None:
                self.checks.on_qos_grant(self, seq, fast=True, span=span)
            return None
        # threshold reached: into the command buffer for rescheduling
        gate = self.sim.event(name="qos.admit")
        self.buffered_total += 1
        if self.obs is not None:
            self._c_buffered.inc()
            self._g_depth.add(1)
        self.buffer.post((gate, nbytes, seq, span))
        if not self._dispatcher_running:
            self._dispatcher_running = True
            self.sim.spawn(self._dispatch(), name="qos.dispatch")
        return gate

    def _dispatch(self):
        """Command dispatcher: replay buffered commands in order."""
        while len(self.buffer) > 0:
            gate, nbytes, seq, span = (yield self.buffer.get())
            if self.obs is not None:
                # the gauge tracks buffer occupancy, so it drops when the
                # command leaves the buffer, not when its tokens arrive
                self._g_depth.add(-1)
            yield self.iops_bucket.consume(1.0)
            yield self.bw_bucket.consume(nbytes)
            self.passed_total += 1
            if self.obs is not None:
                self._c_passed.inc()
            if self.checks is not None:
                self.checks.on_qos_grant(self, seq, fast=False, span=span)
            gate.succeed()
        self._dispatcher_running = False


class QoSModule:
    """The engine-level QoS stage: routes commands per namespace."""

    def __init__(self, sim: Simulator, enabled: bool = True,
                 obs: Optional[MetricsRegistry] = None, checks=None):
        self.sim = sim
        self.enabled = enabled
        self.obs = obs
        self.checks = checks
        self._per_ns: dict[str, _NamespaceQoS] = {}

    def configure(self, ns_key: str, limits: QoSLimits) -> None:
        nsq = _NamespaceQoS(self.sim, ns_key, limits, obs=self.obs)
        if self.checks is not None:
            self.checks.bind_qos(nsq)
        self._per_ns[ns_key] = nsq

    def forget(self, ns_key: str) -> None:
        """Drop a deleted namespace's limits.  Commands its buffer still
        holds keep draining through their own dispatcher."""
        self._per_ns.pop(ns_key, None)

    def limits_for(self, ns_key: str) -> Optional[QoSLimits]:
        nsq = self._per_ns.get(ns_key)
        return nsq.limits if nsq else None

    def admit(self, ns_key: str, nbytes: int, span=None) -> Optional[Event]:
        """Gate a command: an event to wait on when it is held, None when
        it may proceed now (QoS off, unlimited, or under threshold)."""
        if not self.enabled:
            return None
        nsq = self._per_ns.get(ns_key)
        if nsq is None or nsq.limits.unlimited:
            return None
        return nsq.admit(nbytes, span=span)

    def buffered_total(self, ns_key: str) -> int:
        """Cumulative count of commands that were ever buffered."""
        nsq = self._per_ns.get(ns_key)
        return nsq.buffered_total if nsq else 0

    def buffer_depth(self, ns_key: str) -> int:
        """Commands sitting in the namespace's buffer right now."""
        nsq = self._per_ns.get(ns_key)
        return len(nsq.buffer) if nsq else 0

    def passed_count(self, ns_key: str) -> int:
        nsq = self._per_ns.get(ns_key)
        return nsq.passed_total if nsq else 0
