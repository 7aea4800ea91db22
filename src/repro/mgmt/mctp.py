"""MCTP over PCIe (DMTF DSP0238) — BM-Store's out-of-band transport.

Management traffic reaches the BMS-Controller without any host
involvement: PCIe vendor-defined messages (VDMs) carry MCTP packets
between the remote console's access point and the MCTP endpoint on the
ARM SoC.  Messages larger than the transmission unit are fragmented
with SOM/EOM/sequence semantics and reassembled at the receiver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from ..sim import Event, SimulationError, Simulator

__all__ = ["MCTPPacket", "MCTPEndpoint", "MCTP_BTU"]

#: baseline transmission unit (payload bytes per packet)
MCTP_BTU = 64


@dataclass(frozen=True)
class MCTPPacket:
    """One MCTP-over-PCIe packet (the VDM payload)."""

    src_eid: int
    dst_eid: int
    msg_tag: int
    som: bool  # start of message
    eom: bool  # end of message
    seq: int
    msg_type: int
    payload: bytes

    def to_bytes(self) -> bytes:
        header = {
            "src": self.src_eid, "dst": self.dst_eid, "tag": self.msg_tag,
            "som": self.som, "eom": self.eom, "seq": self.seq,
            "type": self.msg_type,
        }
        head = json.dumps(header).encode()
        return len(head).to_bytes(2, "little") + head + self.payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MCTPPacket":
        hlen = int.from_bytes(raw[:2], "little")
        header = json.loads(raw[2 : 2 + hlen])
        return cls(
            src_eid=header["src"], dst_eid=header["dst"], msg_tag=header["tag"],
            som=header["som"], eom=header["eom"], seq=header["seq"],
            msg_type=header["type"], payload=raw[2 + hlen :],
        )


class _Reassembly:
    __slots__ = ("chunks", "next_seq", "msg_type")

    def __init__(self, msg_type: int):
        self.chunks: list[bytes] = []
        self.next_seq = 0
        self.msg_type = msg_type


class MCTPEndpoint:
    """An MCTP endpoint: fragmentation, reassembly, and dispatch.

    ``transmit`` is the physical-layer hook (a function sending one
    packet's bytes toward the peer and returning a delivery event);
    the BMS-Controller wires it to PCIe VDMs, tests can use a direct
    loopback.
    """

    def __init__(
        self,
        sim: Simulator,
        eid: int,
        transmit: Callable[[int, bytes], Event],
        per_packet_ns: int = 5000,
        name: str = "mctp",
    ):
        self.sim = sim
        self.eid = eid
        self.name = name
        self.per_packet_ns = per_packet_ns
        self._transmit = transmit
        # MCTP message tags are 3 bits: at most 8 messages may be in
        # flight from one endpoint; senders block for a free tag
        from ..sim import Store

        self._tag_pool = Store(sim, name=f"{name}.tags")
        for tag in range(8):
            self._tag_pool.post(tag)
        self._handlers: dict[int, Callable[[int, bytes], None]] = {}
        self._partial: dict[tuple[int, int], _Reassembly] = {}
        self.packets_sent = 0
        self.packets_received = 0
        self.messages_delivered = 0

    def on_message(self, msg_type: int, handler: Callable[[int, bytes], None]) -> None:
        """Register a handler(src_eid, message_bytes) for one type."""
        self._handlers[msg_type] = handler

    # ------------------------------------------------------------------ send
    def send_message(self, dst_eid: int, msg_type: int, message: bytes) -> Event:
        """Fragment + transmit; event fires when the last packet is sent."""
        done = self.sim.event(name=f"{self.name}.send")
        self.sim.spawn(self._send_proc(dst_eid, msg_type, message, done),
                       name=f"{self.name}.tx")
        return done

    def _send_proc(self, dst_eid: int, msg_type: int, message: bytes, done: Event):
        tag = yield self._tag_pool.get()
        try:
            chunks = [
                message[i : i + MCTP_BTU] for i in range(0, len(message), MCTP_BTU)
            ]
            if not chunks:
                chunks = [b""]
            for seq, chunk in enumerate(chunks):
                packet = MCTPPacket(
                    src_eid=self.eid, dst_eid=dst_eid, msg_tag=tag,
                    som=(seq == 0), eom=(seq == len(chunks) - 1),
                    seq=seq % 4, msg_type=msg_type, payload=chunk,
                )
                yield self.sim.timeout(self.per_packet_ns)
                yield self._transmit(dst_eid, packet.to_bytes())
                self.packets_sent += 1
        finally:
            self._tag_pool.post(tag)
        done.succeed()

    # --------------------------------------------------------------- receive
    def receive_packet(self, raw: bytes) -> None:
        """Physical layer delivers one packet's bytes."""
        self.packets_received += 1
        packet = MCTPPacket.from_bytes(raw)
        if packet.dst_eid != self.eid:
            raise SimulationError(
                f"{self.name}: packet for EID {packet.dst_eid} arrived at {self.eid}"
            )
        key = (packet.src_eid, packet.msg_tag)
        if packet.som:
            self._partial[key] = _Reassembly(packet.msg_type)
        asm = self._partial.get(key)
        if asm is None:
            return  # drop out-of-context fragment, as hardware does
        if packet.seq != asm.next_seq % 4:
            del self._partial[key]  # sequence error: drop the message
            return
        asm.next_seq += 1
        asm.chunks.append(packet.payload)
        if packet.eom:
            del self._partial[key]
            message = b"".join(asm.chunks)
            self.messages_delivered += 1
            handler = self._handlers.get(asm.msg_type)
            if handler is not None:
                handler(packet.src_eid, message)
