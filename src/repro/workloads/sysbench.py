"""Sysbench OLTP workload driving MiniSQL (the paper's MySQL role).

Implements ``oltp_read_write`` and ``oltp_read_only``: each transaction
is the classic statement bundle (10 point selects, 1 range select,
2 updates, 1 delete + 1 re-insert), executed by closed-loop threads
against the ``sbtest`` table.  Reports queries/s, transactions/s, and
average transaction latency — the Fig. 13(b) / Table VIII metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.metrics import LatencyStats
from ..apps.minisql import MiniSQL, TableSchema
from ..sim import Event, RandomStream, Simulator, StreamFactory
from ..sim.units import MS

__all__ = ["SysbenchSpec", "SysbenchResult", "SysbenchRun", "run_sysbench"]

SBTEST_SCHEMA = TableSchema(
    name="sbtest1",
    key_column="id",
    columns=("id", "k", "c", "pad"),
    rows_per_page=64,
    avg_row_bytes=220,
)


@dataclass(frozen=True)
class SysbenchSpec:
    """One Sysbench OLTP configuration (table size, threads, statement bundle)."""
    name: str = "oltp_read_write"
    table_size: int = 20_000
    threads: int = 16
    runtime_ns: int = 60 * MS
    ramp_ns: int = 6 * MS
    point_selects: int = 10
    range_selects: int = 1
    range_size: int = 100
    index_updates: int = 1
    non_index_updates: int = 1
    delete_inserts: int = 1
    read_only: bool = False


@dataclass
class SysbenchResult:
    """Measured Sysbench output: transactions, queries, latency."""
    spec: SysbenchSpec
    transactions: int
    queries: int
    window_ns: int
    latency: Optional[LatencyStats]

    @property
    def tps(self) -> float:
        return self.transactions * 1e9 / self.window_ns if self.window_ns else 0.0

    @property
    def qps(self) -> float:
        return self.queries * 1e9 / self.window_ns if self.window_ns else 0.0

    @property
    def avg_latency_ms(self) -> float:
        return self.latency.mean_ns / 1e6 if self.latency else 0.0


class SysbenchRun:
    """Prepare + timed run against one MiniSQL instance."""

    def __init__(
        self,
        sim: Simulator,
        db: MiniSQL,
        spec: SysbenchSpec,
        streams: StreamFactory,
        tag: str = "sysbench",
    ):
        self.sim = sim
        self.db = db
        self.spec = spec
        self.streams = streams
        self.tag = tag
        self._txns = 0
        self._queries = 0
        self._latencies: list[int] = []
        self._next_id = spec.table_size
        self.finished: Event = sim.event(name=f"{tag}.finished")
        self._live = 0
        self._window_start = 0
        self._window_end = 0

    # ---------------------------------------------------------------- prepare
    def prepare(self):
        """Process generator: create + fill sbtest1."""
        if SBTEST_SCHEMA.name not in self.db.tables:
            self.db.create_table(SBTEST_SCHEMA)
        rng = self.streams.stream(f"{self.tag}.prepare")
        txn = self.db.begin()
        for i in range(self.spec.table_size):
            yield from txn.insert(
                SBTEST_SCHEMA.name,
                {"id": i, "k": rng.randint(0, self.spec.table_size - 1),
                 "c": f"c-{i}", "pad": "x" * 16},
            )
            if i % 500 == 499:
                yield from txn.commit()
                txn = self.db.begin()
        yield from txn.commit()

    # -------------------------------------------------------------------- run
    def start(self) -> None:
        self._window_start = self.sim.now + self.spec.ramp_ns
        self._window_end = self._window_start + self.spec.runtime_ns
        for t in range(self.spec.threads):
            self._live += 1
            rng = self.streams.stream(f"{self.tag}.t{t}", extra=t)
            self.sim.spawn(self._client(rng), name=f"{self.tag}.c{t}")

    def _client(self, rng: RandomStream):
        while self.sim.now < self._window_end:
            start = self.sim.now
            queries = yield from self._one_transaction(rng)
            finish = self.sim.now
            if self._window_start <= finish <= self._window_end:
                self._txns += 1
                self._queries += queries
                self._latencies.append(finish - start)
        self._live -= 1
        if self._live == 0:
            self.finished.succeed()

    def _one_transaction(self, rng: RandomStream):
        spec = self.spec
        table = SBTEST_SCHEMA.name
        txn = self.db.begin()
        queries = 0
        for _ in range(spec.point_selects):
            yield from txn.select(table, rng.randint(0, spec.table_size - 1))
            queries += 1
        for _ in range(spec.range_selects):
            start_key = rng.randint(0, max(0, spec.table_size - spec.range_size))
            yield from txn.select_range(table, start_key, limit=spec.range_size)
            queries += 1
        if not (spec.read_only or self.spec.name == "oltp_read_only"):
            for _ in range(spec.index_updates + spec.non_index_updates):
                yield from txn.update(
                    table, rng.randint(0, spec.table_size - 1),
                    {"k": rng.randint(0, spec.table_size - 1)},
                )
                queries += 1
            for _ in range(spec.delete_inserts):
                victim = rng.randint(0, spec.table_size - 1)
                deleted = yield from txn.delete(table, victim)
                queries += 1
                new_id = victim if deleted else self._alloc_id()
                try:
                    yield from txn.insert(
                        table,
                        {"id": new_id, "k": rng.randint(0, spec.table_size - 1),
                         "c": "re", "pad": "x" * 16},
                    )
                except Exception:
                    pass  # duplicate under concurrency, as sysbench tolerates
                queries += 1
        yield from txn.commit()
        return queries

    def _alloc_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def result(self) -> SysbenchResult:
        return SysbenchResult(
            spec=self.spec,
            transactions=self._txns,
            queries=self._queries,
            window_ns=self.spec.runtime_ns,
            latency=LatencyStats.from_samples(self._latencies) if self._latencies else None,
        )


def run_sysbench(
    sim: Simulator,
    db: MiniSQL,
    spec: SysbenchSpec,
    streams: StreamFactory,
    tag: str = "sysbench",
) -> SysbenchResult:
    """Prepare sbtest1, run the OLTP clients, return the result."""
    run = SysbenchRun(sim, db, spec, streams, tag=tag)
    sim.run(sim.process(run.prepare(), name=f"{tag}.prep"))
    db.start_checkpointer()
    run.start()
    sim.run(run.finished)
    return run.result()
