"""MiniKV: LSM-tree key-value store (the RocksDB stand-in for YCSB)."""

from ..._lazy import lazy_exports

__all__ = [
    "BloomFilter",
    "MiniKV",
    "MiniKVConfig",
    "MiniKVStats",
    "TOMBSTONE",
    "decode_records",
    "encode_record",
    "record_size",
    "MemTable",
    "KVRecoveryReport",
    "crash_and_recover_kv",
    "SSTable",
    "SSTableWriter",
    "WriteAheadLog",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "bloom": ("BloomFilter",),
    "db": ("MiniKV", "MiniKVConfig", "MiniKVStats"),
    "encoding": (
        "TOMBSTONE", "decode_records", "encode_record", "record_size",
    ),
    "memtable": ("MemTable",),
    "recovery": ("KVRecoveryReport", "crash_and_recover_kv"),
    "sstable": ("SSTable", "SSTableWriter"),
    "wal": ("WriteAheadLog",),
})
