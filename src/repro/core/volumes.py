"""Copy-on-write volume composition over the BMS-Engine Mapping Table.

BM-Store's Fig. 4a table translates host chunks to physical extents but
knows nothing about *sharing*: every namespace owns its chunks outright,
so provisioning a tenant from a golden image means copying every chunk
up front.  This layer adds the missing composition story on top of the
unmodified translation hardware model:

* **golden images** — any namespace adopted by the manager becomes a
  clonable base volume;
* **thin clones** — a clone gets its own :class:`MappingTable` whose
  entries point at the *source's* physical chunks, bumping a per-chunk
  refcount instead of copying data (provisioning is O(chunks) metadata);
* **snapshots** — a point-in-time freeze of a volume's chunk list,
  holding a reference on every chunk so later writes to the origin
  cannot free it from under the snapshot;
* **CoW faulting** — the engine write path consults the manager before
  translation; the first write to a *shared* chunk allocates a fresh
  physical chunk, charges a modeled copy latency, remaps the table
  entry, and drops the reference on the parent chunk.

A chunk is shared iff its refcount exceeds one; the *last* holder
writes in place, so a fully-diverged clone pays no further CoW tax.
Refcounts are per ``(ssd_id, physical_chunk)`` — exactly the coordinate
the packed 8-bit mapping entry encodes — and the lba checker shadows
them (:meth:`CheckContext.on_chunk_free` fails if a chunk is freed
while still referenced).

Armed by :meth:`BMSEngine.volume_manager` (or the first NVMe-MI volume
command), the manager attaches through the engine hooks listed in
``core/hooks.py``.
"""

from __future__ import annotations

from typing import Optional

from ..mgmt.nvme_mi import MIOpcode, MIStatus
from ..nvme.spec import LBA_BYTES
from ..sim import SimulationError
from .lba_mapping import MappingEntry
from .qos import QoSLimits

__all__ = ["VolumeManager", "CLONE_CHUNK_META_NS", "COW_COPY_NS"]

#: modeled metadata cost of cloning one chunk (table write + refcount
#: bump on the ARM core) — provisioning a 24-chunk volume costs ~6 us,
#: versus minutes for a physical copy of 1.5 TB
CLONE_CHUNK_META_NS = 250

#: modeled cost of the CoW chunk copy on first write.  The production
#: copy is a background chunk-sized DMA; the simulation charges a flat
#: latency on the faulting command (the paper-scale 64 GiB chunk would
#: dominate any run, so this models a small-chunk dev configuration).
COW_COPY_NS = 40_000


class VolumeManager:
    """Refcounted chunk sharing, snapshots, and thin clones for one engine."""

    def __init__(self, engine, cow_copy_ns: int = COW_COPY_NS,
                 clone_chunk_meta_ns: int = CLONE_CHUNK_META_NS):
        self.engine = engine
        self.obs = engine.obs
        self.cow_copy_ns = cow_copy_ns
        self.clone_chunk_meta_ns = clone_chunk_meta_ns
        #: (ssd_id, physical chunk) -> number of holders (volumes + snapshots)
        self.refcounts: dict[tuple[int, int], int] = {}
        #: volume key -> {"kind": "base"|"clone", "parent": Optional[str]}
        self.volumes: dict[str, dict] = {}
        #: snapshot name -> frozen state of its origin volume
        self.snapshots: dict[str, dict] = {}
        #: per-volume CoW fault counts (global total in ``cow_faults``)
        self.faults_by_volume: dict[str, int] = {}
        self.cow_faults = 0
        self.clones_created = 0
        self.snapshots_created = 0
        #: the world's CheckContext (lba checker shadows refcounts);
        #: None = dormant
        self.checks = engine.sim.checker("lba")
        # existing namespaces become base volumes immediately so their
        # chunks are refcounted before any snapshot/clone touches them
        for key in sorted(engine.namespaces):
            self.adopt(key)
        hooks = engine.hooks
        # the CoW copy runs first: a write's dirty mark follows its copy
        hooks.write.insert(0, self.on_write)
        hooks.ns_create.append(lambda ens: self.adopt(ens.key))
        hooks.ns_teardown.append(self._release)
        hooks.opcodes["mi"].update({
            MIOpcode.CREATE_SNAPSHOT: self._mi_snapshot,
            MIOpcode.CLONE_VOLUME: self._mi_clone,
            MIOpcode.VOLUME_STAT: self._mi_stat,
        })
        # tenants see their own volume's CoW statistics in the vendor
        # log page (the host never learns fleet topology)
        hooks.opcodes["log"]["volume"] = (
            lambda key: self.volume_stat(key) if key in self.volumes else None)

    # ------------------------------------------------------------ refcounts
    def _incref(self, phys: tuple[int, int]) -> None:
        count = self.refcounts.get(phys, 0) + 1
        self.refcounts[phys] = count
        if self.checks is not None:
            self.checks.on_chunk_incref(self, phys, count)
        self._publish_shared()

    def _decref(self, phys: tuple[int, int]) -> bool:
        """Drop one reference; returns True when the chunk became free."""
        count = self.refcounts.get(phys)
        if count is None:
            raise SimulationError(f"decref of untracked chunk {phys}")
        if self.checks is not None:
            self.checks.on_chunk_decref(self, phys, count - 1)
        if count > 1:
            self.refcounts[phys] = count - 1
            self._publish_shared()
            return False
        del self.refcounts[phys]
        if self.checks is not None:
            self.checks.on_chunk_free(self, phys)
        self._publish_shared()
        return True

    def shared_chunk_count(self) -> int:
        return sum(1 for count in self.refcounts.values() if count > 1)

    def _publish_shared(self) -> None:
        self.obs.gauge("shared_chunks").set(self.shared_chunk_count())

    # ------------------------------------------------------------- volumes
    def adopt(self, key: str) -> None:
        """Register an existing engine namespace as a base volume."""
        if key in self.volumes:
            return
        ens = self.engine.namespaces.get(key)
        if ens is None:
            raise SimulationError(f"no namespace {key} to adopt")
        self.volumes[key] = {"kind": "base", "parent": None}
        self.faults_by_volume.setdefault(key, 0)
        for phys in ens.chunks:
            self._incref(tuple(phys))

    def _resolve_source(self, source: str):
        """A clone source: a live volume or a snapshot.

        Returns ``(chunk list, num_blocks, parent name)``.
        """
        snap = self.snapshots.get(source)
        if snap is not None:
            return list(snap["chunks"]), snap["num_blocks"], source
        ens = self.engine.namespaces.get(source)
        if ens is None:
            raise SimulationError(f"no volume or snapshot named {source}")
        self.adopt(source)
        return list(ens.chunks), ens.namespace.num_blocks, source

    def create_snapshot(self, volume: str, snapshot: str) -> dict:
        """Freeze ``volume``'s current mapping under the name ``snapshot``."""
        if snapshot in self.snapshots or snapshot in self.engine.namespaces:
            raise SimulationError(f"name {snapshot} already in use")
        ens = self.engine.namespaces.get(volume)
        if ens is None:
            raise SimulationError(f"no volume {volume}")
        self.adopt(volume)
        chunks = tuple(tuple(phys) for phys in ens.chunks)
        self.snapshots[snapshot] = {
            "origin": volume,
            "chunks": chunks,
            "num_blocks": ens.namespace.num_blocks,
        }
        for phys in chunks:
            self._incref(phys)
        self.snapshots_created += 1
        self.obs.counter("snapshots_created").inc()
        return self.volume_stat(snapshot)

    def delete_snapshot(self, snapshot: str) -> None:
        snap = self.snapshots.pop(snapshot, None)
        if snap is None:
            raise SimulationError(f"no snapshot {snapshot}")
        for phys in snap["chunks"]:
            freed = self._decref(phys)
            if freed:
                self.engine._free_chunks[phys[0]].append(phys[1])

    def clone_volume(self, source: str, key: str):
        """Thin-clone ``source`` (volume or snapshot) into namespace ``key``.

        No data moves: the clone's fresh :class:`MappingTable` points at
        the source's physical chunks and every chunk gains a reference.
        Returns the new :class:`EngineNamespace` (unbound; the caller
        attaches a function and QoS limits as for any namespace).
        """
        engine = self.engine
        if key in engine.namespaces or key in self.snapshots:
            raise SimulationError(f"name {key} already in use")
        chunks, num_blocks, parent = self._resolve_source(source)
        ens = engine.add_namespace(key, [tuple(phys) for phys in chunks], num_blocks)
        for phys in ens.chunks:
            self._incref(phys)
        self.volumes[key] = {"kind": "clone", "parent": parent}
        self.faults_by_volume[key] = 0
        self.clones_created += 1
        self.obs.counter("clones_created").inc()
        self.obs.counter("clone_provision_ns").inc(self.clone_cost_ns(len(chunks)))
        return ens

    def clone_cost_ns(self, nchunks: int) -> int:
        """Modeled provisioning latency: pure metadata, O(chunks)."""
        return self.clone_chunk_meta_ns * max(1, nchunks)

    def _release(self, ens, freeable: list) -> None:
        """Namespace teardown: drop refs; only the chunks that became
        free are freed (a snapshot or clone may still hold the rest)."""
        self.volumes.pop(ens.key, None)
        freeable.clear()
        for phys in ens.chunks:
            phys = tuple(phys)
            if self.refcounts.get(phys) is None:
                # never adopted (manager created after heavy churn)
                freeable.append(phys)
            elif self._decref(phys):
                freeable.append(phys)

    # ------------------------------------------------------------ CoW path
    def on_write(self, ens, slba: int, nblocks: int, span=None):
        """Engine write-path hook, *before* translation (step ② prefix).

        Generator: yields only when a shared chunk actually faults, so
        the common unshared case adds zero simulation events.
        """
        if not self.refcounts:
            return
        cs = ens.table.chunk_blocks
        first = slba // cs
        last = (slba + max(1, nblocks) - 1) // cs
        for idx in range(first, min(last, len(ens.chunks) - 1) + 1):
            phys = tuple(ens.chunks[idx])
            if self.refcounts.get(phys, 1) > 1:
                yield from self._cow_fault(ens, idx, phys, span)

    def _cow_fault(self, ens, idx: int, old: tuple[int, int], span=None):
        """First write to a shared chunk: allocate, copy, remap, decref."""
        new_ssd, new_chunk = self._alloc_chunk(prefer=old[0])
        # the chunk copy is the only simulated cost of the fault
        yield self.engine.sim.timeout(self.cow_copy_ns)
        self.refcounts[(new_ssd, new_chunk)] = 1
        if self.checks is not None:
            self.checks.on_chunk_incref(self, (new_ssd, new_chunk), 1)
        ens.table.set_entry(
            idx, MappingEntry(base_chunk=new_chunk, ssd_id=new_ssd))
        ens.chunks[idx] = (new_ssd, new_chunk)
        freed = self._decref(old)
        if freed:
            # the writer held the penultimate ref and a concurrent
            # release dropped the other: return the parent chunk
            self.engine._free_chunks[old[0]].append(old[1])
        self.cow_faults += 1
        self.faults_by_volume[ens.key] = self.faults_by_volume.get(ens.key, 0) + 1
        self.obs.counter("cow_faults", ns=ens.key).inc()
        if span is not None:
            span.note_fault("cow_fault")

    def _alloc_chunk(self, prefer: int) -> tuple[int, int]:
        """A free physical chunk, same-SSD preferred (deterministic)."""
        free = self.engine._free_chunks
        order = [prefer] + [i for i in range(len(free)) if i != prefer]
        for ssd_id in order:
            if free[ssd_id]:
                return ssd_id, free[ssd_id].pop(0)
        raise SimulationError("CoW fault: no free chunks on any back end")

    # ---------------------------------------------------------- NVMe-MI
    def _mi_snapshot(self, p: dict):
        return MIStatus.SUCCESS, self.create_snapshot(p["volume"], p["snapshot"])

    def _mi_clone(self, p: dict):
        engine = self.engine
        ens = self.clone_volume(p["source"], p["key"])
        # provisioning is metadata-only: O(chunks) table writes on the
        # ARM core, never a data copy
        yield engine.sim.timeout(self.clone_cost_ns(len(ens.chunks)))
        limits = QoSLimits.from_mi_params(p)
        if limits is not None:
            engine.qos.configure(p["key"], limits)
        if p.get("fn") is not None:
            engine.bind_namespace(p["key"], int(p["fn"]))
        return MIStatus.SUCCESS, self.volume_stat(p["key"])

    def _mi_stat(self, p: dict):
        if p.get("key") is not None:
            return MIStatus.SUCCESS, self.volume_stat(p["key"])
        return MIStatus.SUCCESS, {"volumes": self.stat_all()}

    # ------------------------------------------------------------ reporting
    def volume_stat(self, key: str) -> dict:
        """A deterministic, JSON-able description of one volume/snapshot."""
        snap = self.snapshots.get(key)
        if snap is not None:
            chunks = list(snap["chunks"])
            kind, parent = "snapshot", snap["origin"]
            size_bytes = snap["num_blocks"] * LBA_BYTES
        else:
            ens = self.engine.namespaces.get(key)
            if ens is None:
                raise SimulationError(f"no volume or snapshot named {key}")
            self.adopt(key)
            chunks = [tuple(phys) for phys in ens.chunks]
            info = self.volumes[key]
            kind, parent = info["kind"], info["parent"]
            size_bytes = ens.namespace.num_blocks * LBA_BYTES
        shared = sum(1 for phys in chunks
                     if self.refcounts.get(tuple(phys), 1) > 1)
        return {
            "key": key,
            "kind": kind,
            "parent": parent,
            "size_bytes": size_bytes,
            "chunks": len(chunks),
            "shared_chunks": shared,
            "cow_faults": self.faults_by_volume.get(key, 0),
            "snapshots": sorted(
                name for name, s in self.snapshots.items() if s["origin"] == key
            ),
        }

    def stat_all(self) -> list[dict]:
        """Every volume and snapshot, sorted by key (determinism probe)."""
        names = sorted(set(self.volumes) | set(self.snapshots))
        return [self.volume_stat(name) for name in names]
