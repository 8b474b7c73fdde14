"""Key-value pair model and binary serde for the shuffle path.

DataMPI moves *key-value pairs*, not byte buffers, between the O and A
communicators; Hadoop's intermediate data is Writable-encoded pairs.  Both
engines in this reproduction share one wire format so their shuffle byte
volumes are directly comparable (Fig 2(c)/(d) of the paper plots exactly
these serialized sizes).

Keys and values are tuples of primitive Python values.  The encoding is a
compact tagged format:

======  ==========================================
tag     payload
======  ==========================================
``N``   null, no payload
``I``   8-byte big-endian signed integer
``D``   8-byte IEEE-754 double
``S``   2-byte length + UTF-8 bytes
``B``   1-byte boolean
======  ==========================================

Each tuple is prefixed with a 1-byte arity.
"""

from __future__ import annotations

import struct
from array import array
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError

Fields = Tuple[object, ...]


@dataclass(frozen=True)
class KeyValue:
    """One shuffle record: a composite key and a composite value."""

    key: Fields
    value: Fields

    def serialized_size(self) -> int:
        """Wire size of this pair, memoized.

        Collectors on both engines account every pair's size, often more
        than once (partition buffer + histogram); the pair is immutable,
        so the first computation is cached on the instance.
        """
        try:
            return self._size  # type: ignore[attr-defined]
        except AttributeError:
            size = kv_size(self)
            object.__setattr__(self, "_size", size)
            return size


_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U16 = struct.Struct(">H")


def _encode_fields(fields: Fields, out: bytearray) -> None:
    if len(fields) > 255:
        raise ExecutionError("composite key/value arity > 255")
    out.append(len(fields))
    for field in fields:
        # exact-type dispatch first: `type(True) is bool`, so the bool/int
        # precedence of the isinstance chain is preserved; subclasses fall
        # through to the chain below.
        kind = type(field)
        if kind is str:
            data = field.encode("utf-8")
            if len(data) > 0xFFFF:
                raise ExecutionError("string field longer than 64 KiB")
            out += b"S" + _U16.pack(len(data)) + data
        elif kind is int:
            out += b"I" + _I64.pack(field)
        elif kind is float:
            out += b"D" + _F64.pack(field)
        elif field is None:
            out += b"N"
        elif kind is bool:
            out += b"B" + (b"\x01" if field else b"\x00")
        elif isinstance(field, bool):
            out += b"B" + (b"\x01" if field else b"\x00")
        elif isinstance(field, int):
            out += b"I" + _I64.pack(field)
        elif isinstance(field, float):
            out += b"D" + _F64.pack(field)
        elif isinstance(field, str):
            data = field.encode("utf-8")
            if len(data) > 0xFFFF:
                raise ExecutionError("string field longer than 64 KiB")
            out += b"S" + _U16.pack(len(data)) + data
        else:
            raise ExecutionError(f"unsupported field type: {type(field)!r}")


def _decode_fields(buffer: bytes, offset: int) -> Tuple[Fields, int]:
    arity = buffer[offset]
    offset += 1
    fields = []
    for _ in range(arity):
        tag = buffer[offset : offset + 1]
        offset += 1
        if tag == b"N":
            fields.append(None)
        elif tag == b"B":
            fields.append(buffer[offset] == 1)
            offset += 1
        elif tag == b"I":
            fields.append(_I64.unpack_from(buffer, offset)[0])
            offset += 8
        elif tag == b"D":
            fields.append(_F64.unpack_from(buffer, offset)[0])
            offset += 8
        elif tag == b"S":
            (length,) = _U16.unpack_from(buffer, offset)
            offset += 2
            fields.append(buffer[offset : offset + length].decode("utf-8"))
            offset += length
        else:
            raise ExecutionError(f"corrupt KV stream (tag {tag!r})")
    return tuple(fields), offset


def serialize_kv(pair: KeyValue) -> bytes:
    """Encode one pair into the tagged binary format."""
    out = bytearray()
    _encode_fields(pair.key, out)
    _encode_fields(pair.value, out)
    return bytes(out)


def serialize_fields(fields: Fields) -> bytes:
    """Encode one tuple as a key with an empty value.

    Byte-identical to ``serialize_kv(KeyValue(fields, ()))`` without
    building the throwaway pair — the partitioning hash calls this once
    per row.
    """
    out = bytearray()
    _encode_fields(fields, out)
    out.append(0)  # empty-value arity
    return bytes(out)


def deserialize_kv(buffer: bytes, offset: int = 0) -> Tuple[KeyValue, int]:
    """Decode one pair starting at *offset*; returns (pair, next_offset)."""
    key, offset = _decode_fields(buffer, offset)
    value, offset = _decode_fields(buffer, offset)
    return KeyValue(key, value), offset


# Exact-type sizes for the fixed-width tags; `type(True) is bool` keeps
# the bool/int distinction without an isinstance ladder per field.
_FIXED_FIELD_SIZES = {type(None): 1, bool: 2, int: 9, float: 9}


def fields_size(fields) -> int:
    """Serialized size of one tuple: arity byte plus tagged fields.

    Accepts any sequence of primitive values, so callers sizing raw rows
    don't pay a ``tuple``/``KeyValue`` allocation first.
    """
    total = 1  # arity byte
    fixed = _FIXED_FIELD_SIZES
    for field in fields:
        # strings first (the dominant field type in warehouse rows):
        # a type identity check is cheaper than the dict lookup
        if type(field) is str:
            # an ASCII string encodes to exactly len(field) bytes —
            # skip the throwaway encode() in the common case
            if field.isascii():
                total += 3 + len(field)
            else:
                total += 3 + len(field.encode("utf-8"))
            continue
        size = fixed.get(type(field))
        if size is not None:
            total += size
        elif isinstance(field, bool):
            total += 2
        elif isinstance(field, int):
            total += 9
        elif isinstance(field, float):
            total += 9
        elif isinstance(field, str):
            total += 3 + len(field.encode("utf-8"))
        else:
            raise ExecutionError(f"unsupported field type: {type(field)!r}")
    return total


def kv_size(pair: KeyValue) -> int:
    """Serialized size of a pair without materializing the buffer.

    Used on the hot path of the cost model: collectors account every pair's
    wire size, so this mirrors :func:`serialize_kv` byte-for-byte.
    """
    return fields_size(pair.key) + fields_size(pair.value)


# ---------------------------------------------------------------------------
# column-level serde (the production shuffle sizes and hashes whole columns)
# ---------------------------------------------------------------------------
#
# The same wire format, one column of fields at a time: each pass below is
# a C-level ``map`` over the column and yields exactly what the per-value
# functions above yield for every value in it.  A column they cannot
# decide from its type set alone returns ``None`` and the caller walks it
# with the per-value serde (:func:`exact_field_sizes`,
# :func:`exact_field_bytes`), errors included.

def _bounded_key_strings(lengths: List[int]) -> List[int]:
    """*lengths* (UTF-8 bytes per string), bounded as ``_encode_fields``
    bounds a string it encodes."""
    if max(lengths) > 0xFFFF:
        raise ExecutionError("string field longer than 64 KiB")
    return lengths


def bulk_field_sizes(column: Sequence, key: bool = False):
    """Wire sizes of the fields of a non-empty *column* as ``(fixed,
    varying)``: field *i* takes ``fixed + varying[i]`` bytes, and
    ``varying`` is ``None`` when every field takes the same.  A *key*
    column also raises what encoding its fields would raise (a key is
    encoded, a value only sized).  ``None``: the type set does not
    decide it."""
    if isinstance(column, array):  # 'q' / 'd' buffers hold exact ints / floats
        return 9, None
    kinds = set(map(type, column))  # type(True) is bool: never the 9-byte branch
    if kinds == {str}:
        # len() is a byte length only behind isascii()
        if all(map(str.isascii, column)):
            lengths = list(map(len, column))
        else:
            lengths = list(map(len, map(str.encode, column)))
        if key:
            _bounded_key_strings(lengths)
        return 3, lengths
    if not kinds <= _FIXED_FIELD_SIZES.keys():
        return None
    if key and int in kinds:
        if len(kinds) > 1:
            return None
        deque(map(_I64.pack, column), maxlen=0)  # beyond 64 bits: struct.error
    if len(kinds) == 1:
        return _FIXED_FIELD_SIZES[kinds.pop()], None
    return 0, list(map(_FIXED_FIELD_SIZES.__getitem__, map(type, column)))


def exact_field_sizes(column: Sequence, key: bool = False):
    """:func:`bulk_field_sizes` by the per-value serde."""
    if key:
        return 0, [len(data) for data in exact_field_bytes(column)]
    return 0, [fields_size((field,)) - 1 for field in column]


def bulk_field_bytes(column: Sequence) -> Optional[List[bytes]]:
    """Tagged wire bytes of every field of a non-empty key *column* (what
    ``_encode_fields`` appends per field), or ``None`` when the type set
    does not decide the encoding."""
    if isinstance(column, array):
        kinds = {int} if column.typecode == "q" else {float}
    else:
        kinds = set(map(type, column))
    if kinds == {str}:
        encoded = list(map(str.encode, column))
        lengths = _bounded_key_strings(list(map(len, encoded)))
        headers = map(b"S".__add__, map(_U16.pack, lengths))
        return list(map(bytes.__add__, headers, encoded))
    if kinds == {int}:
        return list(map(b"I".__add__, map(_I64.pack, column)))
    if kinds == {float}:
        return list(map(b"D".__add__, map(_F64.pack, column)))
    return None


def exact_field_bytes(column: Sequence) -> List[bytes]:
    """:func:`bulk_field_bytes` by the per-value serde."""
    # arity byte in front, empty-value arity byte behind
    return [serialize_fields((field,))[1:-1] for field in column]
