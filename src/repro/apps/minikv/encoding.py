"""Record encoding for the LSM store: WAL records and SST blocks.

Length-prefixed binary framing so records survive block packing and
partial-block reads exactly like an on-disk format must.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

__all__ = [
    "encode_record",
    "decode_records",
    "find_record",
    "record_size",
    "TOMBSTONE",
]

#: value sentinel for deletions
TOMBSTONE = b"\x00__tombstone__\x00"

_HEADER = struct.Struct("<IIQ")  # key_len, value_len, sequence


def record_size(key: bytes, value: bytes) -> int:
    """On-disk bytes one framed record occupies."""
    return _HEADER.size + len(key) + len(value)


def encode_record(key: bytes, value: bytes, sequence: int) -> bytes:
    """One framed record: header + key + value."""
    if not key:
        raise ValueError("empty key")
    return _HEADER.pack(len(key), len(value), sequence) + key + value


def decode_records(blob: bytes) -> Iterator[tuple[bytes, bytes, int]]:
    """Yield (key, value, sequence) until padding/garbage is reached."""
    offset = 0
    while offset + _HEADER.size <= len(blob):
        key_len, value_len, sequence = _HEADER.unpack_from(blob, offset)
        if key_len == 0:
            return  # zero padding marks end-of-block
        offset += _HEADER.size
        if offset + key_len + value_len > len(blob):
            return  # truncated tail (torn write)
        key = blob[offset : offset + key_len]
        offset += key_len
        value = blob[offset : offset + value_len]
        offset += value_len
        yield key, value, sequence


def find_record(blob: bytes, key: bytes) -> Optional[tuple[bytes, int]]:
    """(value, sequence) of ``key``'s newest record in one block, or None.

    One walk over the framing under :func:`decode_records`' rules: zero
    padding ends the block, a torn tail is ignored, and among records
    of ``key`` the first with the highest sequence wins.  Key lengths
    are compared before key bytes, and a value is sliced only on a
    match, so no record's key or value is copied out.  The walk stops
    at the record holding the last occurrence of the key's bytes: no
    record past it can match.
    """
    unpack = _HEADER.unpack_from
    header = _HEADER.size
    end = len(blob)
    key_len = len(key)
    last = blob.rfind(key)  # < end, so the bound below implies the header fits
    best: Optional[tuple[bytes, int]] = None
    best_seq = -1
    offset = 0
    while offset + header <= last:
        rec_key_len, value_len, sequence = unpack(blob, offset)
        if rec_key_len == 0:
            break  # zero padding marks end-of-block
        offset += header
        stop = offset + rec_key_len + value_len
        if stop > end:
            break  # truncated tail (torn write)
        if (rec_key_len == key_len and sequence > best_seq
                and blob.startswith(key, offset)):
            best = (blob[offset + key_len : stop], sequence)
            best_seq = sequence
        offset = stop
    return best
