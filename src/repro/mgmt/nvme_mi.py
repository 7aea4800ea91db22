"""NVMe Management Interface (NVMe-MI) over MCTP.

The remote console speaks NVMe-MI to the BMS-Controller: health polls,
I/O statistics, namespace provisioning, hot-upgrade and hot-plug
triggers.  Requests/responses are typed records serialized to bytes so
they ride the MCTP fragmentation path for real.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["MIOpcode", "MIStatus", "MIRequest", "MIResponse", "MCTP_TYPE_NVME_MI"]

#: MCTP message type for NVMe-MI (per NVMe-MI spec over MCTP)
MCTP_TYPE_NVME_MI = 0x04


class MIOpcode(enum.IntEnum):
    """Management commands BM-Store supports out of band."""

    HEALTH_STATUS_POLL = 0x01
    CONTROLLER_LIST = 0x02
    READ_IO_STATS = 0x10  # BM-Store I/O monitor (per-function AXI counters)
    IO_MONITOR_SNAPSHOT = 0x11  # full dump of the world's metrics registry
    CREATE_NAMESPACE = 0x20
    DELETE_NAMESPACE = 0x21
    BIND_NAMESPACE = 0x22
    UNBIND_NAMESPACE = 0x23
    SET_QOS = 0x24
    FIRMWARE_HOT_UPGRADE = 0x30
    HOT_PLUG_REPLACE = 0x31
    GET_UPGRADE_REPORT = 0x32
    GET_FAULT_LOG = 0x33  # injected faults, slot health, recovery count
    CREATE_SNAPSHOT = 0x40  # CoW volume layer: freeze a volume's mapping
    CLONE_VOLUME = 0x41  # thin clone from a volume or snapshot
    VOLUME_STAT = 0x42  # per-volume sharing/CoW statistics
    PUSH_INSTALL = 0x50  # pushdown: validate + install a program on a namespace
    PUSH_UNINSTALL = 0x51  # pushdown: remove an installed program
    PUSH_STAT = 0x52  # pushdown: per-program execution statistics
    CXL_ENABLE = 0x60  # arm the CXL buffer tier (spill/borrow extension)
    CXL_STAT = 0x61  # CXL tier spill/promote/borrow statistics


class MIStatus(enum.IntEnum):
    """NVMe-MI response status codes."""
    SUCCESS = 0x00
    INVALID_PARAMETER = 0x04
    INTERNAL_ERROR = 0x05
    UNSUPPORTED = 0x06
    BUSY = 0x07


@dataclass
class MIRequest:
    """One management request: opcode, correlation id, parameters."""
    opcode: int
    request_id: int
    params: dict[str, Any] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        return json.dumps(
            {"op": int(self.opcode), "rid": self.request_id, "params": self.params}
        ).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MIRequest":
        obj = json.loads(raw)
        return cls(opcode=obj["op"], request_id=obj["rid"], params=obj["params"])


@dataclass
class MIResponse:
    """One management response, correlated by request id."""
    request_id: int
    status: int
    body: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == int(MIStatus.SUCCESS)

    def to_bytes(self) -> bytes:
        return json.dumps(
            {"rid": self.request_id, "status": int(self.status), "body": self.body}
        ).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MIResponse":
        obj = json.loads(raw)
        return cls(request_id=obj["rid"], status=obj["status"], body=obj["body"])
