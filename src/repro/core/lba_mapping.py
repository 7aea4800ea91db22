"""BMS-Engine LBA Mapping Table — paper Fig. 4(a) and equations (1)-(4).

The table is a two-dimensional array of 8-bit *mapping entries*:

* bits [7:2] — base chunk index on the back-end SSD (6 bits)
* bits [1:0] — back-end SSD id (2 bits)

Each row additionally has an 8-bit *validation entry*; bit ``j`` says
whether mapping entry ``j`` of that row is valid.  Back-end capacity is
carved into fixed-size chunks (64 GiB in production).  Address
translation for a host LBA ``HL`` with chunk size ``CS`` (in blocks)
and ``EN`` entries per row:

    i      = (HL / CS) / EN                       (1)
    j      = (HL / CS) mod EN                     (2)
    SSD_ID = MT[i][j][1:0]                        (3)
    PL     = MT[i][j][7:2] * CS + HL mod CS       (4)

The hardware holds one table per front-end namespace context; the
:class:`MappingTable` here is that per-namespace table, with the
paper's default provisioning of eight entries (one row) per namespace
and the ability to span more rows for larger namespaces (the paper's
own evaluation binds a 1536 GB namespace = 24 chunks).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import SimulationError
from ..sim.units import GIB

__all__ = [
    "MappingEntry",
    "MappingTable",
    "CHUNK_BYTES",
    "ENTRIES_PER_ROW",
    "ROWS",
    "ENTRY_BASE_BITS",
    "ENTRY_SSD_BITS",
]

CHUNK_BYTES = 64 * GIB
ENTRIES_PER_ROW = 8
ROWS = 8
ENTRY_BASE_BITS = 6
ENTRY_SSD_BITS = 2
_BASE_MASK = (1 << ENTRY_BASE_BITS) - 1
_SSD_MASK = (1 << ENTRY_SSD_BITS) - 1


@dataclass(frozen=True)
class MappingEntry:
    """A decoded 8-bit mapping entry."""

    base_chunk: int  # 6-bit chunk index on the target SSD
    ssd_id: int  # 2-bit back-end SSD id

    def __post_init__(self) -> None:
        if not 0 <= self.base_chunk <= _BASE_MASK:
            raise SimulationError(f"base chunk {self.base_chunk} exceeds 6 bits")
        if not 0 <= self.ssd_id <= _SSD_MASK:
            raise SimulationError(f"SSD id {self.ssd_id} exceeds 2 bits")

    def encode(self) -> int:
        """Pack into the 8-bit hardware format of Fig. 4(a)."""
        return (self.base_chunk << ENTRY_SSD_BITS) | self.ssd_id

    @classmethod
    def decode(cls, raw: int) -> "MappingEntry":
        if not 0 <= raw <= 0xFF:
            raise SimulationError(f"mapping entry {raw:#x} is not a byte")
        return cls(base_chunk=(raw >> ENTRY_SSD_BITS) & _BASE_MASK, ssd_id=raw & _SSD_MASK)


class MappingTable:
    """One namespace's mapping table (rows x entries of packed bytes)."""

    def __init__(
        self,
        chunk_blocks: int,
        rows: int = ROWS,
        entries_per_row: int = ENTRIES_PER_ROW,
    ):
        if chunk_blocks <= 0:
            raise SimulationError("chunk size must be positive")
        self.chunk_blocks = chunk_blocks
        self.rows = rows
        self.entries_per_row = entries_per_row
        self._table: list[list[int]] = [[0] * entries_per_row for _ in range(rows)]
        self._valid: list[int] = [0] * rows  # 8-bit validation entries
        # translation counters, read back by the engine's I/O monitor
        self.translations = 0
        self.extent_splits = 0
        self.faults = 0
        #: the world's CheckContext (lba checker), set by the engine that
        #: builds the table; None = dormant, zero-cost
        self.checks = None

    # ------------------------------------------------------------ provisioning
    @property
    def capacity_entries(self) -> int:
        return self.rows * self.entries_per_row

    def set_entry(self, index: int, entry: MappingEntry) -> None:
        """Install the mapping for host chunk ``index`` and mark it valid."""
        i, j = self._coords(index)
        if self.checks is not None:
            self.checks.on_lba_set(self, index, entry)
        self._table[i][j] = entry.encode()
        self._valid[i] |= 1 << j

    def clear_entry(self, index: int) -> None:
        i, j = self._coords(index)
        if self.checks is not None:
            self.checks.on_lba_clear(self, index)
        self._valid[i] &= ~(1 << j)
        self._table[i][j] = 0

    def valid_count(self) -> int:
        return sum(bin(v).count("1") for v in self._valid)

    def validation_entry(self, row: int) -> int:
        return self._valid[row]

    def raw_entry(self, index: int) -> int:
        i, j = self._coords(index)
        return self._table[i][j]

    def _coords(self, index: int) -> tuple[int, int]:
        # equations (1) and (2) with chunk_index = HL / CS precomputed
        i = index // self.entries_per_row
        j = index % self.entries_per_row
        if not 0 <= i < self.rows:
            raise SimulationError(
                f"chunk index {index} outside table ({self.rows}x{self.entries_per_row})"
            )
        return i, j

    # -------------------------------------------------------------- translation
    def translate(self, host_lba: int) -> tuple[int, int]:
        """Equations (1)-(4): host LBA -> (ssd_id, physical LBA).

        Raises for invalid (unprovisioned) entries, which the engine
        surfaces as an LBA-out-of-range completion.
        """
        cs = self.chunk_blocks
        chunk_index = host_lba // cs
        i = chunk_index // self.entries_per_row  # (1)
        j = chunk_index % self.entries_per_row  # (2)
        if not 0 <= i < self.rows:
            self.faults += 1
            raise SimulationError(f"host LBA {host_lba} beyond mapping table")
        if not self._valid[i] & (1 << j):
            self.faults += 1
            if self.checks is not None:
                # a cleared slot must read back as zero (stale packed
                # bytes could be resurrected by a row re-validation)
                self.checks.on_lba_invalid_read(self, host_lba, self._table[i][j])
            raise SimulationError(f"host LBA {host_lba} hits invalid mapping entry")
        self.translations += 1
        raw = self._table[i][j]
        ssd_id = raw & _SSD_MASK  # (3)
        pl = ((raw >> ENTRY_SSD_BITS) & _BASE_MASK) * cs + host_lba % cs  # (4)
        if self.checks is not None:
            self.checks.on_lba_translate(self, host_lba, ssd_id, pl)
        return ssd_id, pl

    def translate_extent(self, host_lba: int, nblocks: int) -> list[tuple[int, int, int]]:
        """Translate a multi-block extent; splits at chunk boundaries.

        Returns [(ssd_id, physical_lba, nblocks), ...].
        """
        out = []
        remaining = nblocks
        lba = host_lba
        while remaining > 0:
            ssd_id, pl = self.translate(lba)
            in_chunk = self.chunk_blocks - (lba % self.chunk_blocks)
            take = min(remaining, in_chunk)
            out.append((ssd_id, pl, take))
            lba += take
            remaining -= take
        if len(out) > 1:
            self.extent_splits += 1
        return out
