"""Remote management console.

The cloud vendor's side of BM-Store's out-of-band channel: an MCTP
access point at the PCIe root (the BMC path) speaking NVMe-MI to the
BMS-Controller — never touching the tenant's host OS.
"""

from __future__ import annotations

from typing import Any, Optional

from ..host.environment import Host
from ..pcie.tlp import VendorDefinedMessage
from ..sim import Event, Simulator
from .mctp import MCTPEndpoint
from .nvme_mi import MCTP_TYPE_NVME_MI, MIOpcode, MIRequest, MIResponse

__all__ = ["RemoteConsole", "CONSOLE_EID"]

CONSOLE_EID = 0x08


class RemoteConsole:
    """NVMe-MI requester targeting one BM-Store card."""

    def __init__(self, host: Host, engine_port_name: str, name: str = "console"):
        self.sim: Simulator = host.sim
        self.host = host
        self.name = name
        self._engine_port_name = engine_port_name
        self._next_rid = 0
        self._pending: dict[int, Event] = {}
        self.mctp = MCTPEndpoint(
            self.sim, CONSOLE_EID, transmit=self._vdm_transmit, name=f"{name}.mctp"
        )
        self.mctp.on_message(MCTP_TYPE_NVME_MI, self._on_response)
        host.fabric.set_root_vdm_handler(self._on_root_vdm)

    # ---------------------------------------------------------- physical layer
    def _vdm_transmit(self, dst_eid: int, raw: bytes) -> Event:
        vdm = VendorDefinedMessage(
            requester_id=0, payload=raw, target_id=self._engine_port_name
        )
        return self.host.fabric.root_send_vdm(vdm)

    def _on_root_vdm(self, vdm: VendorDefinedMessage) -> None:
        self.mctp.receive_packet(vdm.payload)

    def _on_response(self, src_eid: int, raw: bytes) -> None:
        response = MIResponse.from_bytes(raw)
        pending = self._pending.pop(response.request_id, None)
        if pending is not None:
            pending.succeed(response)

    # -------------------------------------------------------------- request API
    def request(self, opcode: MIOpcode, **params: Any) -> Event:
        """Send one NVMe-MI request; event fires with the MIResponse."""
        self._next_rid += 1
        rid = self._next_rid
        done = self.sim.event(name=f"{self.name}.req{rid}")
        self._pending[rid] = done
        req = MIRequest(opcode=int(opcode), request_id=rid, params=params)
        self.mctp.send_message(0x1D, MCTP_TYPE_NVME_MI, req.to_bytes())
        return done

    # convenience wrappers ---------------------------------------------------
    def health(self) -> Event:
        return self.request(MIOpcode.HEALTH_STATUS_POLL)

    def controller_list(self) -> Event:
        return self.request(MIOpcode.CONTROLLER_LIST)

    def io_stats(self, fn: int) -> Event:
        return self.request(MIOpcode.READ_IO_STATS, fn=fn)

    def io_monitor(self) -> Event:
        """Fetch the world's full metrics snapshot out of band."""
        return self.request(MIOpcode.IO_MONITOR_SNAPSHOT)

    def create_namespace(
        self,
        key: str,
        size_bytes: int,
        placement: Optional[list[int]] = None,
        max_iops: Optional[float] = None,
        max_mbps: Optional[float] = None,
    ) -> Event:
        params: dict[str, Any] = {"key": key, "size_bytes": size_bytes}
        if placement is not None:
            params["placement"] = placement
        if max_iops is not None:
            params["max_iops"] = max_iops
        if max_mbps is not None:
            params["max_mbps"] = max_mbps
        return self.request(MIOpcode.CREATE_NAMESPACE, **params)

    def delete_namespace(self, key: str) -> Event:
        return self.request(MIOpcode.DELETE_NAMESPACE, key=key)

    def bind_namespace(self, key: str, fn: int) -> Event:
        return self.request(MIOpcode.BIND_NAMESPACE, key=key, fn=fn)

    def set_qos(
        self,
        key: str,
        max_iops: Optional[float] = None,
        max_mbps: Optional[float] = None,
    ) -> Event:
        return self.request(MIOpcode.SET_QOS, key=key, max_iops=max_iops, max_mbps=max_mbps)

    def create_snapshot(self, volume: str, snapshot: str) -> Event:
        """Freeze ``volume``'s current mapping under ``snapshot``."""
        return self.request(MIOpcode.CREATE_SNAPSHOT, volume=volume,
                            snapshot=snapshot)

    def clone_volume(
        self,
        source: str,
        key: str,
        fn: Optional[int] = None,
        max_iops: Optional[float] = None,
        max_mbps: Optional[float] = None,
    ) -> Event:
        """Thin-clone ``source`` (volume or snapshot) into ``key``.

        No data is copied; the clone shares the source's physical
        chunks until first write (CoW).
        """
        params: dict[str, Any] = {"source": source, "key": key}
        if fn is not None:
            params["fn"] = fn
        if max_iops is not None:
            params["max_iops"] = max_iops
        if max_mbps is not None:
            params["max_mbps"] = max_mbps
        return self.request(MIOpcode.CLONE_VOLUME, **params)

    def volume_stat(self, key: Optional[str] = None) -> Event:
        """Per-volume sharing/CoW statistics (all volumes when no key)."""
        if key is None:
            return self.request(MIOpcode.VOLUME_STAT)
        return self.request(MIOpcode.VOLUME_STAT, key=key)

    def install_program(self, key: str, program: dict) -> Event:
        """Install a pushdown program on ``key``'s namespace (out of band).

        The program dict is validated engine-side before it is armed;
        a rejected program surfaces as ``INVALID_PARAMETER`` with the
        validator's reason in the response error text.
        """
        return self.request(MIOpcode.PUSH_INSTALL, key=key, program=program)

    def uninstall_program(self, key: str) -> Event:
        return self.request(MIOpcode.PUSH_UNINSTALL, key=key)

    def push_stat(self, key: Optional[str] = None) -> Event:
        """Per-program execution statistics (all programs when no key)."""
        if key is None:
            return self.request(MIOpcode.PUSH_STAT)
        return self.request(MIOpcode.PUSH_STAT, key=key)

    def enable_cxl(self) -> Event:
        """Arm the engine's CXL buffer tier out of band (idempotent)."""
        return self.request(MIOpcode.CXL_ENABLE)

    def cxl_stat(self) -> Event:
        """CXL tier spill/promote/borrow statistics (UNSUPPORTED when
        the tier is dormant)."""
        return self.request(MIOpcode.CXL_STAT)

    def hot_upgrade(
        self, ssd: int, version: str, size_bytes: int = 2 * 1024 * 1024,
        activation_s: float = 6.5,
    ) -> Event:
        return self.request(
            MIOpcode.FIRMWARE_HOT_UPGRADE, ssd=ssd, version=version,
            size_bytes=size_bytes, activation_s=activation_s,
        )

    def hot_plug_replace(self, ssd: int) -> Event:
        return self.request(MIOpcode.HOT_PLUG_REPLACE, ssd=ssd)

    def upgrade_reports(self) -> Event:
        return self.request(MIOpcode.GET_UPGRADE_REPORT)

    def fault_log(self) -> Event:
        """Observed faults, slot health, and recovery count (out of band)."""
        return self.request(MIOpcode.GET_FAULT_LOG)
