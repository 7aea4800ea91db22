"""PCIe fabric: ports, links, and address routing.

The fabric is a root complex with point-to-point links to endpoints.
Every attached endpoint gets a :class:`Port` with a full-duplex pair of
:class:`~repro.sim.resources.BandwidthLink` (tx toward the root, rx
from the root).  Transactions are routed by memory address through
*windows*; anything not claimed by a window goes to the *root handler*
(host DRAM on the host fabric; the BMS-Engine's DMA router on the
back-end fabric).  Routing is a scan of the (one to four) windows on
every transaction, with no per-address memo: a fabric's routing state
is its window list, whatever addresses its DMA touches.

Timing model per transaction:

* posted write:   tx-link serialization (+ per-hop latency) [+ target
  rx-link if the window is behind another port]
* read:           request header on tx, target access time, completion
  payload on the target->initiator path

A transaction schedules its link legs and nothing else.  A read's
request leg carries the target's access time; a write's last leg is
its completion (delivery is the leg's first callback), and so is a
read's completion leg, which resumes the waiter directly.  A leg that
someone waits on is dispatched as a kernel completion, so the waiter
continues where a separate completion event would have resumed it.
Only a peer-to-peer write, whose last leg does not exist yet when the
caller waits, keeps a separate event.

CPU-initiated MMIO (doorbells, register reads) uses :meth:`cpu_write`
/ :meth:`cpu_read`, which traverse only the target port's rx/tx links.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol

from ..sim import BandwidthLink, Event, SimulationError, Simulator
from .tlp import VendorDefinedMessage, wire_bytes

__all__ = ["AddressHandler", "Port", "PCIeFabric", "PCIE_GEN3_BYTES_PER_SEC_PER_LANE"]

# PCIe Gen3: 8 GT/s, 128b/130b -> ~984.6 MB/s per lane per direction (raw;
# framing overhead is charged via tlp.wire_bytes).
PCIE_GEN3_BYTES_PER_SEC_PER_LANE = 984_600_000.0


class AddressHandler(Protocol):
    """Target of routed memory transactions (DRAM, BAR, chip memory)."""

    def mem_write(self, addr: int, length: int, data: Optional[bytes]) -> None:
        """Handle a memory write landing at ``addr``."""
        ...  # pragma: no cover - protocol

    def mem_read(self, addr: int, length: int) -> Optional[bytes]:
        """Handle a memory read; return bytes or None (elided data).

        A handler whose data arrives later (the BMS-Engine's DMA router
        fetches from the *other* PCIe domain) defines instead
        ``mem_read_async(addr, length, reply)``, which calls
        ``reply(data)`` when the data is ready, possibly at once."""
        ...  # pragma: no cover - protocol

    @property
    def access_ns(self) -> int:
        """Device-side access latency charged to reads."""
        ...  # pragma: no cover - protocol


class _Window:
    __slots__ = ("base", "end", "route")

    def __init__(self, base: int, size: int, handler: AddressHandler, port: Optional["Port"]):
        self.base = base
        self.end = base + size
        # the (handler, port) pair every address in the window resolves to
        self.route = (handler, port)


class Port:
    """An endpoint's attachment point: link pair + routing id space."""

    def __init__(
        self,
        fabric: "PCIeFabric",
        name: str,
        lanes: int,
        hop_latency_ns: int,
    ):
        self.fabric = fabric
        self.name = name
        self.lanes = lanes
        bw = PCIE_GEN3_BYTES_PER_SEC_PER_LANE * lanes
        sim = fabric.sim
        self.tx = BandwidthLink(sim, bw, propagation_ns=hop_latency_ns, name=f"{name}.tx")
        self.rx = BandwidthLink(sim, bw, propagation_ns=hop_latency_ns, name=f"{name}.rx")
        self._vdm_handler: Optional[Callable[[VendorDefinedMessage], None]] = None

    # -- address windows --------------------------------------------------
    def map_window(self, base: int, size: int, handler: AddressHandler) -> None:
        """Expose a BAR region of this endpoint into the fabric."""
        self.fabric._add_window(_Window(base, size, handler, self))

    # -- endpoint-initiated transactions ----------------------------------
    def mem_write(self, addr: int, length: int, data: Optional[bytes] = None) -> Event:
        """DMA write toward the fabric; event fires on delivery."""
        return self.fabric._routed_write(self, addr, length, data, notify=True)

    def post_write(self, addr: int, length: int, data: Optional[bytes] = None) -> None:
        """:meth:`mem_write` for a sender that never waits on delivery:
        the write lands at the same instant, with no completion event."""
        self.fabric._routed_write(self, addr, length, data, notify=False)

    def mem_read(self, addr: int, length: int) -> Event:
        """DMA read; event fires with the data when the completion lands."""
        return self.fabric._routed_read(self, addr, length)

    def send_vdm(self, message: VendorDefinedMessage) -> Event:
        """Send a vendor-defined message (MCTP transport)."""
        return self.fabric._route_vdm(self, message)

    def on_vdm(self, handler: Callable[[VendorDefinedMessage], None]) -> None:
        self._vdm_handler = handler

    # -- fault injection (pcie.link hook point) ----------------------------
    def link_down(self, duration_ns: int) -> None:
        """Link flap: both directions unavailable for ``duration_ns``;
        queued transfers resume when the link retrains."""
        self.tx.stall(duration_ns)
        self.rx.stall(duration_ns)

    def set_lanes(self, lanes: int) -> None:
        """Retrain at a different width (fault: width degrade)."""
        if lanes < 1:
            raise SimulationError(f"{self.name}: link width must be >= 1")
        self.lanes = lanes
        bw = PCIE_GEN3_BYTES_PER_SEC_PER_LANE * lanes
        self.tx.set_rate(bw)
        self.rx.set_rate(bw)


class PCIeFabric:
    """One PCIe domain: a root complex plus its endpoints."""

    def __init__(self, sim: Simulator, name: str = "pcie", hop_latency_ns: int = 150):
        self.sim = sim
        self.name = name
        self.hop_latency_ns = hop_latency_ns
        self._windows: list[_Window] = []
        self._ports: list[Port] = []
        self._root_route: Optional[tuple[AddressHandler, None]] = None
        self._root_vdm_handler: Optional[Callable[[VendorDefinedMessage], None]] = None
        # constant event labels (an f-string per transaction is pure
        # allocation churn on the hot path)
        self._wr_name = name + ":wr"
        self._rd_name = name + ":rd"
        self._cpurd_name = name + ":cpurd"

    # -- topology ----------------------------------------------------------
    def attach(self, name: str, lanes: int = 4) -> Port:
        port = Port(self, name, lanes, self.hop_latency_ns)
        self._ports.append(port)
        return port

    def port(self, name: str) -> Port:
        """Look up an attached endpoint's port by name."""
        for port in self._ports:
            if port.name == name:
                return port
        raise SimulationError(f"{self.name}: no port named {name!r}")

    def set_root_handler(self, handler: AddressHandler) -> None:
        """Claim all unclaimed addresses (host DRAM / engine chip space)."""
        self._root_route = (handler, None)

    def set_root_vdm_handler(self, handler: Callable[[VendorDefinedMessage], None]) -> None:
        self._root_vdm_handler = handler

    def _add_window(self, window: _Window) -> None:
        for existing in self._windows:
            if window.base < existing.end and existing.base < window.end:
                raise SimulationError(
                    f"window [{window.base:#x},{window.end:#x}) overlaps "
                    f"[{existing.base:#x},{existing.end:#x})"
                )
        self._windows.append(window)

    def _resolve(self, addr: int) -> tuple[AddressHandler, Optional[Port]]:
        for window in self._windows:
            if window.base <= addr < window.end:
                return window.route
        route = self._root_route
        if route is None:
            raise SimulationError(
                f"{self.name}: no window claims address {addr:#x} and no root handler"
            )
        return route

    # -- routed transactions -------------------------------------------------
    def _routed_write(self, src: Port, addr: int, length: int,
                      data: Optional[bytes], notify: bool) -> Optional[Event]:
        handler, dst_port = self._resolve(addr)
        nbytes = wire_bytes(length)

        def deliver(_ev: Event) -> None:
            handler.mem_write(addr, length, data)
            if done is not None:
                done.succeed()

        leg1 = src.tx.transfer(nbytes)
        if dst_port is None or dst_port is src:
            # the leg's arrival is the delivery: a waiter waits on the
            # leg itself, dispatched as a completion
            done = None
            leg1.callbacks.append(deliver)
            return self.sim.completion(leg1) if notify else None
        # peer-to-peer: the second hop down the destination port starts
        # only when the first arrives, so a waiter needs its own event
        done = self.sim.pooled_event(self._wr_name) if notify else None

        def hop(_ev: Event) -> None:
            dst_port.rx.transfer(nbytes).callbacks.append(deliver)

        leg1.callbacks.append(hop)
        return done

    def _routed_read(self, src: Port, addr: int, length: int) -> Event:
        handler, dst_port = self._resolve(addr)
        done = self.sim.pooled_event(self._rd_name)
        req_bytes = wire_bytes(0)
        cpl_bytes = wire_bytes(length)
        redirect = self.sim.redirect

        def send_completion(value) -> None:
            # the completion leg stands in for done: it carries the data
            # and resumes done's waiters where done would have
            if dst_port is None or dst_port is src:
                redirect(done, src.rx.transfer(cpl_bytes, value))
            else:
                def hop(_e: Event) -> None:
                    redirect(done, src.rx.transfer(cpl_bytes, value))

                dst_port.tx.transfer(cpl_bytes).callbacks.append(hop)

        def access(_ev: Event) -> None:
            # the request leg already carried the target's access time
            reader = getattr(handler, "mem_read_async", None)
            if reader is not None:
                reader(addr, length, send_completion)
            else:
                send_completion(handler.mem_read(addr, length))

        if dst_port is None or dst_port is src:
            src.tx.transfer(req_bytes, extra_ns=handler.access_ns).callbacks.append(access)
        else:
            def hop_req(_e: Event) -> None:
                dst_port.rx.transfer(
                    req_bytes, extra_ns=handler.access_ns).callbacks.append(access)

            src.tx.transfer(req_bytes).callbacks.append(hop_req)
        return done

    # -- CPU (root-initiated) transactions ------------------------------------
    def cpu_write(self, addr: int, length: int, data: Optional[bytes] = None) -> Event:
        """MMIO write from the host CPU (e.g. a doorbell); the returned
        event is the write's own leg, firing on delivery."""
        handler, dst_port = self._resolve(addr)

        def deliver(_ev: Event) -> None:
            handler.mem_write(addr, length, data)

        if dst_port is None:
            # root-local (DRAM): no link traversal; small access cost
            leg = self.sim.timeout(handler.access_ns)
        else:
            leg = dst_port.rx.transfer(wire_bytes(length))
        leg.callbacks.append(deliver)
        return leg

    def cpu_read(self, addr: int, length: int) -> Event:
        """MMIO/DRAM read from the host CPU."""
        handler, dst_port = self._resolve(addr)
        done = self.sim.pooled_event(self._cpurd_name)
        if dst_port is None:
            def complete(_ev: Event) -> None:
                done.succeed(handler.mem_read(addr, length))

            self.sim.timeout(handler.access_ns).callbacks.append(complete)
        else:
            def respond(_ev: Event) -> None:
                self.sim.redirect(done, dst_port.tx.transfer(
                    wire_bytes(length), handler.mem_read(addr, length)))

            dst_port.rx.transfer(
                wire_bytes(0), extra_ns=handler.access_ns).callbacks.append(respond)
        return done

    # -- vendor-defined messages (MCTP transport) ------------------------------
    def _route_vdm(self, src: Port, message: VendorDefinedMessage) -> Event:
        done = self.sim.event(name=f"{self.name}:vdm")
        nbytes = wire_bytes(message.payload_len)

        if message.route_to_root or message.target_id is None:
            def deliver(_ev: Event) -> None:
                if self._root_vdm_handler is None:
                    raise SimulationError(f"{self.name}: no root VDM handler")
                self._root_vdm_handler(message)
                done.succeed()

            src.tx.transfer(nbytes).callbacks.append(deliver)
            return done

        target = self._port_by_name_or_id(message.target_id)

        def deliver_ep(_ev: Event) -> None:
            if target._vdm_handler is None:
                raise SimulationError(f"{target.name}: no VDM handler registered")
            target._vdm_handler(message)
            done.succeed()

        def hop(_ev: Event) -> None:
            target.rx.transfer(nbytes).callbacks.append(deliver_ep)

        if src is target:
            src.tx.transfer(nbytes).callbacks.append(deliver_ep)
        else:
            src.tx.transfer(nbytes).callbacks.append(hop)
        return done

    def root_send_vdm(self, message: VendorDefinedMessage) -> Event:
        """VDM injected at the root (e.g. BMC/remote console side)."""
        done = self.sim.event(name=f"{self.name}:vdm-root")
        if message.target_id is None:
            raise SimulationError("root VDM needs a target_id")
        target = self._port_by_name_or_id(message.target_id)

        def deliver(_ev: Event) -> None:
            if target._vdm_handler is None:
                raise SimulationError(f"{target.name}: no VDM handler registered")
            target._vdm_handler(message)
            done.succeed()

        target.rx.transfer(wire_bytes(message.payload_len)).callbacks.append(deliver)
        return done

    def _port_by_name_or_id(self, target: Any) -> Port:
        for idx, port in enumerate(self._ports):
            if idx == target or port.name == target:
                return port
        raise SimulationError(f"{self.name}: unknown VDM target {target!r}")
