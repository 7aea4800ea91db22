"""TPC-C workload driving MiniSQL (the paper's Fig. 13(a) benchmark).

A structurally faithful, scale-reduced TPC-C: the nine tables, the five
transaction profiles at the standard mix (New-Order 45%, Payment 43%,
Order-Status 4%, Delivery 4%, Stock-Level 4%), per-warehouse data
layout, and ~10 order lines per new order.  Row-count scale factors are
configurable so simulated runs stay tractable; access *patterns* (the
thing the storage schemes see) are preserved.  Reports tpmC (new-order
transactions per minute) and the overall transaction rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.metrics import LatencyStats
from ..apps.minisql import MiniSQL, TableSchema
from ..sim import Event, RandomStream, Simulator, StreamFactory
from ..sim.units import MS

__all__ = ["TPCCSpec", "TPCCResult", "TPCCRun", "run_tpcc", "TPCC_TABLES"]

TPCC_TABLES = {
    "warehouse": TableSchema("warehouse", "w_id", ("w_id", "w_name", "w_ytd"), avg_row_bytes=90),
    "district": TableSchema("district", "d_key", ("d_key", "w_id", "d_id", "d_next_o_id", "d_ytd"), avg_row_bytes=95),
    "customer": TableSchema("customer", "c_key", ("c_key", "w_id", "d_id", "c_id", "c_balance", "c_ytd", "c_data"), avg_row_bytes=280),
    "item": TableSchema("item", "i_id", ("i_id", "i_name", "i_price"), avg_row_bytes=82),
    "stock": TableSchema("stock", "s_key", ("s_key", "w_id", "i_id", "s_quantity", "s_ytd"), avg_row_bytes=130),
    "orders": TableSchema("orders", "o_key", ("o_key", "w_id", "d_id", "o_id", "c_id", "o_ol_cnt", "o_carrier_id"), avg_row_bytes=60),
    "new_order": TableSchema("new_order", "no_key", ("no_key", "w_id", "d_id", "o_id"), avg_row_bytes=16),
    "order_line": TableSchema("order_line", "ol_key", ("ol_key", "w_id", "d_id", "o_id", "ol_number", "i_id", "ol_quantity", "ol_amount"), avg_row_bytes=70),
    "history": TableSchema("history", "h_key", ("h_key", "w_id", "d_id", "c_id", "h_amount"), avg_row_bytes=46),
}

DISTRICTS_PER_WAREHOUSE = 10


@dataclass(frozen=True)
class TPCCSpec:
    """Scale knobs of one TPC-C run (warehouses, row counts, terminals)."""
    warehouses: int = 4
    #: scale-reduced per-district/table row counts (standard: 3000
    #: customers/district, 100k items, 100k stock/warehouse)
    customers_per_district: int = 60
    items: int = 2000
    stock_per_warehouse: int = 2000
    threads: int = 32
    runtime_ns: int = 60 * MS
    ramp_ns: int = 6 * MS
    order_lines_mean: int = 10


@dataclass
class TPCCResult:
    """Measured TPC-C output: new-order count, totals, latency, mix."""
    spec: TPCCSpec
    new_orders: int
    total_txns: int
    window_ns: int
    latency: Optional[LatencyStats]
    per_type: dict[str, int]

    @property
    def tpmc(self) -> float:
        """New-order transactions per (simulated) minute."""
        return self.new_orders * 60e9 / self.window_ns if self.window_ns else 0.0

    @property
    def tps(self) -> float:
        return self.total_txns * 1e9 / self.window_ns if self.window_ns else 0.0


class TPCCRun:
    """Load + timed run of TPC-C terminals against one MiniSQL engine."""
    def __init__(
        self,
        sim: Simulator,
        db: MiniSQL,
        spec: TPCCSpec,
        streams: StreamFactory,
        tag: str = "tpcc",
    ):
        self.sim = sim
        self.db = db
        self.spec = spec
        self.streams = streams
        self.tag = tag
        self._new_orders = 0
        self._txns = 0
        self._per_type: dict[str, int] = {}
        self._latencies: list[int] = []
        self._next_o_id: dict[tuple[int, int], int] = {}
        self._oldest_no: dict[tuple[int, int], int] = {}
        self.finished: Event = sim.event(name=f"{tag}.finished")
        self._live = 0
        self._window_start = 0
        self._window_end = 0

    # ------------------------------------------------------------------ load
    def load(self):
        """Process generator: populate all nine tables."""
        for schema in TPCC_TABLES.values():
            if schema.name not in self.db.tables:
                self.db.create_table(schema)
        spec = self.spec
        txn = self.db.begin()
        count = 0

        def maybe_commit():
            nonlocal txn, count
            count += 1
            if count % 400 == 0:
                return True
            return False

        for w in range(spec.warehouses):
            yield from txn.insert("warehouse", {"w_id": w, "w_name": f"W{w}", "w_ytd": 0.0})
            for d in range(DISTRICTS_PER_WAREHOUSE):
                yield from txn.insert("district", {
                    "d_key": (w, d), "w_id": w, "d_id": d,
                    "d_next_o_id": 0, "d_ytd": 0.0,
                })
                self._next_o_id[(w, d)] = 0
                self._oldest_no[(w, d)] = 0
                for c in range(spec.customers_per_district):
                    yield from txn.insert("customer", {
                        "c_key": (w, d, c), "w_id": w, "d_id": d, "c_id": c,
                        "c_balance": 0.0, "c_ytd": 0.0, "c_data": "x" * 64,
                    })
                    if maybe_commit():
                        yield from txn.commit()
                        txn = self.db.begin()
            for s in range(spec.stock_per_warehouse):
                yield from txn.insert("stock", {
                    "s_key": (w, s), "w_id": w, "i_id": s,
                    "s_quantity": 100, "s_ytd": 0,
                })
                if maybe_commit():
                    yield from txn.commit()
                    txn = self.db.begin()
        for i in range(spec.items):
            yield from txn.insert("item", {"i_id": i, "i_name": f"item{i}", "i_price": 9.99})
            if maybe_commit():
                yield from txn.commit()
                txn = self.db.begin()
        yield from txn.commit()

    # ------------------------------------------------------------------- run
    def start(self) -> None:
        self._window_start = self.sim.now + self.spec.ramp_ns
        self._window_end = self._window_start + self.spec.runtime_ns
        for t in range(self.spec.threads):
            self._live += 1
            rng = self.streams.stream(f"{self.tag}.t{t}", extra=t)
            self.sim.spawn(self._terminal(rng), name=f"{self.tag}.c{t}")

    def _pick_type(self, rng: RandomStream) -> str:
        x = rng.random()
        if x < 0.45:
            return "new_order"
        if x < 0.88:
            return "payment"
        if x < 0.92:
            return "order_status"
        if x < 0.96:
            return "delivery"
        return "stock_level"

    def _terminal(self, rng: RandomStream):
        handlers = {
            "new_order": self._new_order,
            "payment": self._payment,
            "order_status": self._order_status,
            "delivery": self._delivery,
            "stock_level": self._stock_level,
        }
        while self.sim.now < self._window_end:
            kind = self._pick_type(rng)
            start = self.sim.now
            yield from handlers[kind](rng)
            finish = self.sim.now
            if self._window_start <= finish <= self._window_end:
                self._txns += 1
                self._per_type[kind] = self._per_type.get(kind, 0) + 1
                if kind == "new_order":
                    self._new_orders += 1
                self._latencies.append(finish - start)
        self._live -= 1
        if self._live == 0:
            self.finished.succeed()

    # --------------------------------------------------------- transactions
    def _pick_wdc(self, rng: RandomStream) -> tuple[int, int, int]:
        w = rng.randint(0, self.spec.warehouses - 1)
        d = rng.randint(0, DISTRICTS_PER_WAREHOUSE - 1)
        c = rng.randint(0, self.spec.customers_per_district - 1)
        return w, d, c

    def _new_order(self, rng: RandomStream):
        w, d, c = self._pick_wdc(rng)
        txn = self.db.begin()
        yield from txn.select("warehouse", w)
        o_id = self._next_o_id[(w, d)]
        self._next_o_id[(w, d)] = o_id + 1
        yield from txn.update("district", (w, d), {"d_next_o_id": o_id + 1})
        yield from txn.select("customer", (w, d, c))
        ol_cnt = max(5, min(15, self.spec.order_lines_mean + rng.randint(-3, 3)))
        yield from txn.insert("orders", {
            "o_key": (w, d, o_id), "w_id": w, "d_id": d, "o_id": o_id,
            "c_id": c, "o_ol_cnt": ol_cnt, "o_carrier_id": None,
        })
        yield from txn.insert("new_order", {
            "no_key": (w, d, o_id), "w_id": w, "d_id": d, "o_id": o_id,
        })
        for ol in range(ol_cnt):
            i_id = rng.randint(0, self.spec.items - 1)
            yield from txn.select("item", i_id)
            s_id = i_id % self.spec.stock_per_warehouse
            stock = yield from txn.select("stock", (w, s_id))
            quantity = (stock or {}).get("s_quantity", 100)
            yield from txn.update("stock", (w, s_id), {
                "s_quantity": quantity - 1 if quantity > 10 else quantity + 91,
            })
            yield from txn.insert("order_line", {
                "ol_key": (w, d, o_id, ol), "w_id": w, "d_id": d, "o_id": o_id,
                "ol_number": ol, "i_id": i_id,
                "ol_quantity": rng.randint(1, 10), "ol_amount": 9.99,
            })
        yield from txn.commit()

    def _payment(self, rng: RandomStream):
        w, d, c = self._pick_wdc(rng)
        amount = rng.uniform(1.0, 5000.0)
        txn = self.db.begin()
        wh = yield from txn.select("warehouse", w)
        yield from txn.update("warehouse", w, {"w_ytd": (wh or {}).get("w_ytd", 0.0) + amount})
        dist = yield from txn.select("district", (w, d))
        yield from txn.update("district", (w, d), {"d_ytd": (dist or {}).get("d_ytd", 0.0) + amount})
        cust = yield from txn.select("customer", (w, d, c))
        yield from txn.update("customer", (w, d, c), {
            "c_balance": (cust or {}).get("c_balance", 0.0) - amount,
            "c_ytd": (cust or {}).get("c_ytd", 0.0) + amount,
        })
        h_key = (w, d, c, self.sim.now, rng.randint(0, 1 << 30))
        yield from txn.insert("history", {
            "h_key": h_key, "w_id": w, "d_id": d, "c_id": c, "h_amount": amount,
        })
        yield from txn.commit()

    def _order_status(self, rng: RandomStream):
        w, d, c = self._pick_wdc(rng)
        txn = self.db.begin()
        yield from txn.select("customer", (w, d, c))
        last_o = self._next_o_id[(w, d)] - 1
        if last_o >= 0:
            order = yield from txn.select("orders", (w, d, last_o))
            for ol in range((order or {}).get("o_ol_cnt", 0)):
                yield from txn.select("order_line", (w, d, last_o, ol))
        yield from txn.commit()

    def _delivery(self, rng: RandomStream):
        w = rng.randint(0, self.spec.warehouses - 1)
        txn = self.db.begin()
        for d in range(DISTRICTS_PER_WAREHOUSE):
            o_id = self._oldest_no[(w, d)]
            if o_id >= self._next_o_id[(w, d)]:
                continue
            deleted = yield from txn.delete("new_order", (w, d, o_id))
            if not deleted:
                self._oldest_no[(w, d)] = o_id + 1
                continue
            self._oldest_no[(w, d)] = o_id + 1
            yield from txn.update("orders", (w, d, o_id), {"o_carrier_id": 7})
            order = yield from txn.select("orders", (w, d, o_id))
            c = (order or {}).get("c_id", 0)
            cust = yield from txn.select("customer", (w, d, c))
            yield from txn.update("customer", (w, d, c), {
                "c_balance": (cust or {}).get("c_balance", 0.0) + 10.0,
            })
        yield from txn.commit()

    def _stock_level(self, rng: RandomStream):
        w = rng.randint(0, self.spec.warehouses - 1)
        d = rng.randint(0, DISTRICTS_PER_WAREHOUSE - 1)
        txn = self.db.begin()
        yield from txn.select("district", (w, d))
        last_o = self._next_o_id[(w, d)]
        checked = set()
        for o_id in range(max(0, last_o - 20), last_o):
            order = yield from txn.select("orders", (w, d, o_id))
            for ol in range((order or {}).get("o_ol_cnt", 0)):
                line = yield from txn.select("order_line", (w, d, o_id, ol))
                if line is None:
                    continue
                s_id = line["i_id"] % self.spec.stock_per_warehouse
                if s_id not in checked:
                    checked.add(s_id)
                    yield from txn.select("stock", (w, s_id))
        yield from txn.commit()

    def result(self) -> TPCCResult:
        return TPCCResult(
            spec=self.spec,
            new_orders=self._new_orders,
            total_txns=self._txns,
            window_ns=self.spec.runtime_ns,
            latency=LatencyStats.from_samples(self._latencies) if self._latencies else None,
            per_type=dict(self._per_type),
        )


def run_tpcc(
    sim: Simulator,
    db: MiniSQL,
    spec: TPCCSpec,
    streams: StreamFactory,
    tag: str = "tpcc",
) -> TPCCResult:
    """Load the TPC-C schema, run the terminals, return the result."""
    run = TPCCRun(sim, db, spec, streams, tag=tag)
    sim.run(sim.process(run.load(), name=f"{tag}.load"))
    db.start_checkpointer()
    run.start()
    sim.run(run.finished)
    return run.result()
