"""App-level pushdown tests: MiniKV chase, MiniSQL filter, CLI coverage."""

import json

import pytest

from repro.apps.minikv import MiniKV, MiniKVConfig
from repro.apps.minisql import MiniSQL, MiniSQLConfig, TableSchema
from repro.baselines import build_bmstore
from repro.checks import CHECKER_NAMES
from repro.cli import main
from repro.sim.units import MIB


def drive(rig, gen):
    return rig.sim.run(rig.sim.process(gen))


def make_kv(pushdown, carry, seed=13):
    rig = build_bmstore(num_ssds=2, seed=seed)
    fn = rig.provision("kv", 64 * MIB)
    driver = rig.baremetal_driver(fn)
    config = MiniKVConfig(
        memtable_bytes=8 * 1024, wal_ring_blocks=64,
        indexed_tables=True, carry_data=carry, pushdown_reads=pushdown,
    )
    return rig, driver, MiniKV(rig.sim, driver, config)


def kv_world(pushdown, carry):
    rig, driver, kv = make_kv(pushdown, carry)
    out = {}

    def flow():
        for i in range(240):
            yield from kv.put(b"k%04d" % i, b"v%03d" % i * 8)
        if pushdown:
            info = yield from kv.install_pushdown()
            assert info.ok
        before = driver.stats.submitted
        values = []
        for i in range(0, 120, 7):
            value = yield from kv.get(b"k%04d" % i)
            values.append(value)
        out["commands"] = driver.stats.submitted - before
        out["values"] = values

    drive(rig, flow())
    out["kv"] = kv
    return out


@pytest.mark.parametrize("carry", [False, True])
def test_minikv_pushdown_matches_mediated(carry):
    mediated = kv_world(pushdown=False, carry=carry)
    pushed = kv_world(pushdown=True, carry=carry)
    assert pushed["values"] == mediated["values"]
    assert all(v is not None for v in pushed["values"])
    assert pushed["kv"].stats.pushdown_gets > 0
    assert pushed["kv"].stats.pushdown_fallbacks == 0
    # the whole point: fewer host<->engine commands for the same reads
    assert pushed["commands"] < mediated["commands"]


def test_minikv_falls_back_when_program_vanishes():
    rig, driver, kv = make_kv(pushdown=True, carry=False)

    def flow():
        for i in range(240):
            yield from kv.put(b"k%04d" % i, b"v%03d" % i * 8)
        info = yield from kv.install_pushdown()
        assert info.ok
        yield driver.uninstall_push_program()
        values = []
        for i in range(0, 120, 7):
            values.append((yield from kv.get(b"k%04d" % i)))
        return values

    values = drive(rig, flow())
    assert all(v is not None for v in values)
    assert kv.stats.pushdown_fallbacks > 0  # vendor path refused, reads OK


def test_shadow_pushdown_get_walks_each_candidate_block_once(monkeypatch):
    from repro.apps.minikv.sstable import SSTable

    rig, driver, kv = make_kv(pushdown=True, carry=False)
    walks = []
    walk = SSTable.get_from_block

    def counted(table, blob, key):
        walks.append((table.table_id, blob))
        return walk(table, blob, key)

    def flow():
        for i in range(240):
            yield from kv.put(b"k%04d" % i, b"v%03d" % i * 8)
        info = yield from kv.install_pushdown()
        assert info.ok
        monkeypatch.setattr(SSTable, "get_from_block", counted)
        per_get = []
        for i in range(0, 120, 7):
            walks.clear()
            value = yield from kv.get(b"k%04d" % i)
            assert value == b"v%03d" % i * 8
            per_get.append(list(walks))
        return per_get

    per_get = drive(rig, flow())
    assert kv.stats.pushdown_gets == len(per_get)
    for blocks in per_get:
        assert blocks and len(set(blocks)) == len(blocks), blocks


def test_minisql_pushdown_point_selects():
    rig = build_bmstore(num_ssds=2, seed=17)
    fn = rig.provision("sql", 64 * MIB)
    driver = rig.baremetal_driver(fn)
    db = MiniSQL(rig.sim, driver, MiniSQLConfig(
        buffer_pool_pages=4, redo_ring_blocks=64,
        stmt_cpu_ns=0, row_cpu_ns=0, pushdown_reads=True,
    ))
    db.create_table(TableSchema("t", "id", ("id", "v"), rows_per_page=4))

    def flow():
        info = yield from db.install_pushdown()
        assert info.ok
        txn = db.begin()
        for i in range(64):
            yield from txn.insert("t", {"id": i, "v": i * 10})
        yield from txn.commit()
        rows = []
        for i in (0, 17, 42, 63):
            txn = db.begin()
            rows.append((yield from txn.select("t", i)))
            yield from txn.commit()
        return rows

    rows = drive(rig, flow())
    assert [r["v"] for r in rows] == [0, 170, 420, 630]
    assert db.pushdown_fetches > 0  # pool misses went through the program
    assert db.pushdown_fallbacks == 0


def test_check_bmstore_covers_all_six_checkers(capsys):
    assert main(["check", "--scheme", "bmstore", "--case", "rand-r-1",
                 "--seed", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["violation"] is None
    coverage = payload["coverage"]
    assert set(coverage) == set(CHECKER_NAMES)
    assert coverage["push"] > 0
    assert all(count > 0 for count in coverage.values())
