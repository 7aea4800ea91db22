"""MiniSQL: transactional page engine (MySQL/InnoDB stand-in)."""

from ..._lazy import lazy_exports

__all__ = [
    "BufferPool",
    "BufferPoolStats",
    "MiniSQL",
    "MiniSQLConfig",
    "Transaction",
    "PAGE_BLOCKS",
    "PAGE_BYTES",
    "Page",
    "PageStore",
    "RecoveryReport",
    "crash_and_recover",
    "RedoLog",
    "RedoRecord",
    "SortedKeyIndex",
    "Table",
    "TableSchema",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "buffer_pool": ("BufferPool", "BufferPoolStats"),
    "engine": ("MiniSQL", "MiniSQLConfig", "Transaction"),
    "pages": ("PAGE_BLOCKS", "PAGE_BYTES", "Page", "PageStore"),
    "recovery": ("RecoveryReport", "crash_and_recover"),
    "redo": ("RedoLog", "RedoRecord"),
    "table": ("SortedKeyIndex", "Table", "TableSchema"),
})
