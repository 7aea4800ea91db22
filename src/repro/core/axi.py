"""AXI register bus between the BMS-Engine (FPGA) and BMS-Controller (ARM).

The engine publishes status/counter registers; the controller reads
them (I/O monitor) and writes control registers (pause, resume,
configuration strobes).  Register accesses carry a fixed bus latency.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Event, SimulationError, Simulator

__all__ = ["AXIBus"]


class AXIBus:
    """A memory-mapped register file with timed accesses."""

    def __init__(self, sim: Simulator, access_ns: int = 120, name: str = "axi"):
        self.sim = sim
        self.access_ns = access_ns
        self.name = name
        self._read_handlers: dict[int, Callable[[], int]] = {}
        #: (base, end, resolve) register blocks, see register_read_block
        self._read_blocks: list[tuple[int, int, Callable[[int], Optional[Callable[[], int]]]]] = []
        self._write_handlers: dict[int, Callable[[int], None]] = {}
        self.reads = 0
        self.writes = 0

    def register_read(self, addr: int, handler: Callable[[], int]) -> None:
        if addr in self._read_handlers or any(b <= addr < e for b, e, _ in self._read_blocks):
            raise SimulationError(f"{self.name}: read register {addr:#x} already bound")
        self._read_handlers[addr] = handler

    def register_read_block(
        self, base: int, nbytes: int,
        resolve: Callable[[int], Optional[Callable[[], int]]],
    ) -> None:
        """Bind the read registers of ``[base, base + nbytes)`` at once:
        a read at ``addr`` asks ``resolve(addr - base)`` for its handler,
        and an offset it maps to None has no register."""
        end = base + nbytes
        if (any(base <= addr < end for addr in self._read_handlers)
                or any(b < end and base < e for b, e, _ in self._read_blocks)):
            raise SimulationError(
                f"{self.name}: read block {base:#x}..{end:#x} overlaps a bound register")
        self._read_blocks.append((base, end, resolve))

    def _block_at(self, addr: int) -> Optional[Callable[[], int]]:
        for base, end, resolve in self._read_blocks:
            if base <= addr < end:
                return resolve(addr - base)
        return None

    def register_write(self, addr: int, handler: Callable[[int], None]) -> None:
        if addr in self._write_handlers:
            raise SimulationError(f"{self.name}: write register {addr:#x} already bound")
        self._write_handlers[addr] = handler

    def read(self, addr: int) -> Event:
        """Timed register read; event fires with the value."""
        handler = self._read_handlers.get(addr) or self._block_at(addr)
        if handler is None:
            raise SimulationError(f"{self.name}: no read register at {addr:#x}")
        self.reads += 1
        ev = self.sim.event(name=f"{self.name}.rd")
        self.sim.timeout(self.access_ns).callbacks.append(
            lambda _e: ev.succeed(handler())
        )
        return ev

    def write(self, addr: int, value: int) -> Event:
        """Timed register write; event fires when applied."""
        handler = self._write_handlers.get(addr)
        if handler is None:
            raise SimulationError(f"{self.name}: no write register at {addr:#x}")
        self.writes += 1
        ev = self.sim.event(name=f"{self.name}.wr")

        def apply(_e) -> None:
            handler(value)
            ev.succeed()

        self.sim.timeout(self.access_ns).callbacks.append(apply)
        return ev
