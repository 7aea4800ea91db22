"""Live migration protocol for fleet tenants: pre-copy + brief cutover.

The control plane's alternative to draining a server after a surprise
hot-removal.  A *drain* stops the tenant at detection time and cold-
copies every chunk before the destination can serve — the outage grows
with volume size.  A *migration* keeps tenant I/O flowing on the source
through a bounded number of iterative pre-copy rounds (the write path
feeds a dirty-chunk bitmap, each round re-copies only what was dirtied
since the last), then pays one brief stop-and-copy cutover bounded by
the final dirty set — the outage is a constant independent of volume
size.

Everything here is *schedule*, computed a priori by the orchestrator
from the armed fault time: per-server simulations execute their plans
against their own clocks, so a fleet fanned over processes stays
byte-identical to a sequential run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sim.units import MS

if TYPE_CHECKING:  # pragma: no cover
    from .server_sim import TenantAssignment

__all__ = ["MigrationPlan", "MigrationArrival", "DirtyChunks",
           "PRECOPY_ROUNDS", "PRECOPY_ROUND_NS", "CUTOVER_NS",
           "CHUNK_COPY_NS", "COLD_CHUNK_COPY_NS"]

#: default pre-copy rounds (round 0 is the full copy)
PRECOPY_ROUNDS = 3
#: fixed length of one pre-copy round; dirty chunks of the previous
#: round are re-copied in the background while I/O keeps flowing
PRECOPY_ROUND_NS = 60 * MS
#: stop-and-copy window: the only time the tenant is dark under
#: migration — deliberately shorter than one availability window
CUTOVER_NS = 20 * MS
#: background copy cost per dirty chunk during a pre-copy round
CHUNK_COPY_NS = 2 * MS
#: cold-copy cost per chunk under drain (tenant stopped throughout);
#: strictly larger than CUTOVER_NS so even a one-chunk volume suffers
#: a longer outage drained than migrated
COLD_CHUNK_COPY_NS = 60 * MS


@dataclass(frozen=True)
class MigrationPlan:
    """One tenant's scheduled departure from a source server.

    ``mode`` is ``"migrate"`` (pre-copy + cutover), ``"drain"`` (stop
    then cold copy), or ``"prime"`` (a single pre-copy round ahead of a
    planned upgrade wave: the warm standby the control plane could cut
    over to, with no stop and no destination).
    """

    tenant: str
    mode: str
    dest: str
    start_ns: int
    rounds: int = PRECOPY_ROUNDS
    round_ns: int = PRECOPY_ROUND_NS
    cutover_ns: int = CUTOVER_NS
    chunk_copy_ns: int = CHUNK_COPY_NS
    cold_chunk_copy_ns: int = COLD_CHUNK_COPY_NS

    def handover_ns(self, chunks: int) -> int:
        """When the destination may start serving, per the schedule."""
        if self.mode == "drain":
            return self.start_ns + chunks * self.cold_chunk_copy_ns
        return self.start_ns + self.rounds * self.round_ns + self.cutover_ns


@dataclass(frozen=True)
class MigrationArrival:
    """One tenant's scheduled arrival on a destination server."""

    tenant: "TenantAssignment"
    serve_from_ns: int
    source: str
    mode: str


class DirtyChunks:
    """The pre-copy's dirty-chunk bitmap: the host chunks of one
    namespace written since the last round, fed by an engine write hook
    from construction until :meth:`close`."""

    def __init__(self, engine, ens, chunks=()):
        self.engine = engine
        self.ens = ens
        self.chunks = set(chunks)
        engine.hooks.write.append(self._on_write)

    def _on_write(self, ens, slba: int, nblocks: int, span) -> None:
        if ens is self.ens:
            cs = ens.table.chunk_blocks
            self.chunks.update(range(slba // cs, (slba + nblocks - 1) // cs + 1))

    def close(self) -> None:
        self.engine.hooks.write.remove(self._on_write)
