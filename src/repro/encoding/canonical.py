"""Canonical, injective serialization for signed material.

Every byte string that is signed or MACed in this library is produced by
:func:`encode`.  The encoding is a small deterministic tag-length-value (TLV)
scheme with the two properties signatures require:

* **Canonical** — a given value has exactly one encoding, so signer and
  verifier always agree on the bytes.
* **Injective** — distinct values have distinct encodings, so a signature
  over one value can never be replayed as a signature over another
  (no ``("ab","c")`` / ``("a","bc")`` ambiguity).

Supported value types (closed set, on purpose):

====== =========================================
tag    Python type
====== =========================================
``N``  ``None``
``F``  ``bool`` (``F\\x00`` false / ``F\\x01`` true)
``I``  ``int`` (arbitrary precision, signed)
``D``  ``float`` (IEEE-754 big-endian, +inf allowed for NEVER)
``B``  ``bytes``
``S``  ``str`` (UTF-8)
``L``  ``list``/``tuple`` (encoded as list)
``M``  ``dict`` with ``str`` keys (sorted by key)
====== =========================================

Lengths are encoded as 4-byte big-endian unsigned integers, which bounds any
single field at 4 GiB — far beyond anything a proxy certificate carries.
Subclasses of the supported types (an ``IntEnum``, a ``NamedTuple``)
encode exactly as their base type.

:func:`encode` makes one pass over the value, appending to a single
``bytearray``: a container writes a placeholder length, then its
elements, then patches the length in place, so no payload is copied once
per nesting level.  Nodes dispatch on their exact ``type()``; only a
subclass pays for the ``isinstance`` resolution.  :func:`encoded_size`
walks the same way and only adds up lengths, which is what byte metering
(``Message.wire_size``) needs.
"""

from __future__ import annotations

import math
import struct
from typing import Any

from repro.errors import DecodingError, EncodingError

_LEN = struct.Struct(">I")
_F64 = struct.Struct(">d")
#: A tag byte and its 4-byte length, packed in one call.
_HEAD = struct.Struct(">BI").pack
#: The tags written with a length, as the ints ``_HEAD`` packs.
_S, _B, _I = b"SBI"

#: Supported base types, in the order a subclass is resolved against them
#: (``bool`` cannot be subclassed, so ``int`` is safe to test first).
_BASES = (int, float, bytes, str, list, tuple, dict)


def _base_type(value: Any) -> type:
    """The supported type ``value`` is an instance of, for subclasses."""
    for base in _BASES:
        if isinstance(value, base):
            return base
    raise EncodingError(f"unsupported type: {type(value).__name__}")


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` into bytes.

    Raises:
        EncodingError: if the value (or any nested element) is of an
            unsupported type or a NaN float, or a dict has non-string
            keys.
    """
    out = bytearray()
    _write(out, value, type(value))
    return bytes(out)


def _write(out: bytearray, value: Any, kind: type) -> None:
    """Append the encoding of ``value`` (whose type is ``kind``) to ``out``."""
    if kind is str:
        data = value.encode("utf-8")
        out += _HEAD(_S, len(data))
        out += data
    elif kind is dict:
        start = len(out)
        out += b"M\x00\x00\x00\x00"
        for key in sorted(value):
            if not isinstance(key, str):
                raise EncodingError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            data = key.encode("utf-8")
            out += _HEAD(_S, len(data))
            out += data
            item = value[key]
            _write(out, item, type(item))
        _LEN.pack_into(out, start + 1, len(out) - start - 5)
    elif kind is bytes:
        out += _HEAD(_B, len(value))
        out += value
    elif kind is int:
        length = (value.bit_length() + 8) // 8 or 1
        out += _HEAD(_I, length)
        out += value.to_bytes(length, "big", signed=True)
    elif kind is list or kind is tuple:
        start = len(out)
        out += b"L\x00\x00\x00\x00"
        for item in value:
            _write(out, item, type(item))
        _LEN.pack_into(out, start + 1, len(out) - start - 5)
    elif kind is float:
        if math.isnan(value):
            raise EncodingError("NaN has no canonical encoding")
        out += b"D\x00\x00\x00\x08"
        out += _F64.pack(value)
    elif value is None:
        out += b"N\x00\x00\x00\x00"
    elif kind is bool:
        out += b"F\x00\x00\x00\x01\x01" if value else b"F\x00\x00\x00\x01\x00"
    else:
        _write(out, value, _base_type(value))


def encoded_size(value: Any) -> int:
    """``len(encode(value))``, computed without building any bytes.

    Raises:
        EncodingError: for every value :func:`encode` rejects.
    """
    return _size(value, type(value))


def _size(value: Any, kind: type) -> int:
    if kind is str:
        # ``isascii`` is O(1) on CPython: ASCII text needs no encoding.
        if value.isascii():
            return 5 + len(value)
        return 5 + len(value.encode("utf-8"))
    if kind is dict:
        # Sizes add up in any order, so the keys need no sorting.
        size = 5
        for key in value:
            if not isinstance(key, str):
                raise EncodingError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            item = value[key]
            size += _size(key, str) + _size(item, type(item))
        return size
    if kind is bytes:
        return 5 + len(value)
    if kind is int:
        return 5 + ((value.bit_length() + 8) // 8 or 1)
    if kind is list or kind is tuple:
        size = 5
        for item in value:
            size += _size(item, type(item))
        return size
    if kind is float:
        if math.isnan(value):
            raise EncodingError("NaN has no canonical encoding")
        return 13
    if value is None:
        return 5
    if kind is bool:
        return 6
    return _size(value, _base_type(value))


def decode(data: bytes) -> Any:
    """Decode a byte string produced by :func:`encode`.

    Raises:
        DecodingError: on truncation, trailing garbage, unknown tags, or
            non-canonical integer encodings.
    """
    value, consumed = _decode_one(data, 0)
    if consumed != len(data):
        raise DecodingError(
            f"trailing garbage: {len(data) - consumed} bytes after value"
        )
    return value


def _decode_one(data: bytes, offset: int) -> tuple:
    if offset + 5 > len(data):
        raise DecodingError("truncated TLV header")
    tag = data[offset : offset + 1]
    (length,) = _LEN.unpack_from(data, offset + 1)
    start = offset + 5
    end = start + length
    if end > len(data):
        raise DecodingError("truncated TLV payload")
    payload = data[start:end]

    if tag == b"N":
        if payload:
            raise DecodingError("None payload must be empty")
        return None, end
    if tag == b"F":
        if payload not in (b"\x00", b"\x01"):
            raise DecodingError("bool payload must be 00 or 01")
        return payload == b"\x01", end
    if tag == b"I":
        if not payload:
            raise DecodingError("int payload must be non-empty")
        value = int.from_bytes(payload, "big", signed=True)
        # Reject non-minimal encodings so decoding is injective too.
        minimal = (value.bit_length() + 8) // 8 or 1
        if len(payload) != minimal:
            raise DecodingError("non-canonical int encoding")
        return value, end
    if tag == b"D":
        if len(payload) != 8:
            raise DecodingError("float payload must be 8 bytes")
        (value,) = _F64.unpack(payload)
        if math.isnan(value):
            raise DecodingError("NaN is not a canonical value")
        return value, end
    if tag == b"B":
        return payload, end
    if tag == b"S":
        try:
            return payload.decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise DecodingError(f"invalid UTF-8 in string: {exc}") from exc
    if tag == b"L":
        items = []
        pos = start
        while pos < end:
            item, pos = _decode_one(data, pos)
            items.append(item)
        if pos != end:
            raise DecodingError("list payload overran its length")
        return items, end
    if tag == b"M":
        result = {}
        pos = start
        previous_key = None
        while pos < end:
            key, pos = _decode_one(data, pos)
            if not isinstance(key, str):
                raise DecodingError("dict key must decode to str")
            if previous_key is not None and key <= previous_key:
                raise DecodingError("dict keys not in canonical sorted order")
            if pos >= end:
                raise DecodingError("dict key without value")
            value, pos = _decode_one(data, pos)
            result[key] = value
            previous_key = key
        if pos != end:
            raise DecodingError("dict payload overran its length")
        return result, end
    raise DecodingError(f"unknown tag {tag!r}")
