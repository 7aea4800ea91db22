"""MSI-X interrupts.

A function's MSI-X table maps vector -> (message address, message data).
Raising a vector is a posted MemWrite of the message data to the message
address; on the host side an :class:`InterruptController` owns those
addresses and dispatches to registered software handlers (the driver's
IRQ routines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import Event, SimulationError
from .fabric import Port

__all__ = ["MSIXEntry", "MSIXTable", "InterruptController"]


@dataclass
class MSIXEntry:
    """One MSI-X table entry: message address/data plus the mask bit."""
    address: int
    data: int
    masked: bool = False


class MSIXTable:
    """Per-function MSI-X vector table."""

    def __init__(self) -> None:
        self._entries: dict[int, MSIXEntry] = {}

    def configure(self, vector: int, address: int, data: int) -> None:
        self._entries[vector] = MSIXEntry(address, data)

    def entry(self, vector: int) -> MSIXEntry:
        try:
            return self._entries[vector]
        except KeyError:
            raise SimulationError(f"MSI-X vector {vector} not configured") from None

    def mask(self, vector: int, masked: bool = True) -> None:
        self.entry(vector).masked = masked

    def raise_vector(self, port: Port, vector: int) -> Optional[Event]:
        """Send the interrupt message; returns an event firing on
        delivery, or None if masked."""
        entry = self.entry(vector)
        if entry.masked:
            return None
        return port.mem_write(entry.address, 4, entry.data.to_bytes(4, "little"))

    def post_vector(self, port: Port, vector: int) -> None:
        """:meth:`raise_vector` for a device that never waits on the
        delivery: a posted write with no completion event."""
        entry = self.entry(vector)
        if not entry.masked:
            port.post_write(entry.address, 4, entry.data.to_bytes(4, "little"))


class InterruptController:
    """Host-side MSI target: a window of message addresses.

    Allocate one message address per (device, vector) and register a
    handler; the controller is installed as an address window on the
    host fabric.
    """

    def __init__(self, base: int, size: int = 1 << 20, access_ns: int = 50):
        self.base = base
        self.size = size
        self._access_ns = access_ns
        self._next = base
        self._handlers: dict[int, Callable[[int], None]] = {}

    @property
    def access_ns(self) -> int:
        return self._access_ns

    def allocate(self, handler: Callable[[int], None]) -> tuple[int, int]:
        """Reserve a message address; returns (address, data)."""
        if self._next >= self.base + self.size:
            raise SimulationError("interrupt controller address space exhausted")
        addr = self._next
        self._next += 4
        self._handlers[addr] = handler
        return addr, addr & 0xFFFF

    # AddressHandler protocol -------------------------------------------------
    def mem_write(self, addr: int, length: int, data) -> None:
        handler = self._handlers.get(addr)
        if handler is None:
            raise SimulationError(f"spurious MSI at {addr:#x}")
        value = int.from_bytes(data, "little") if data else 0
        handler(value)

    def mem_read(self, addr: int, length: int):
        raise SimulationError("interrupt controller is write-only")
