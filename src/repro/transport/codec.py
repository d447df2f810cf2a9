"""Deterministic, versioned wire codec for :class:`repro.net.message.Message`.

Frame layout (all integers big-endian)::

    4 bytes   frame length N (bytes of body that follow)
    N bytes   body:
        1 byte    wire version (``WIRE_VERSION``)
        fields in fixed order:
            kind       str
            payload    dict
            src        int | None
            dst        int | None
            hops       int
            msg_id     int
            trace      list[int] | None
            trace_ctx  tuple | None

Values are tagged (one tag byte, then the tag-specific encoding):

====  =========  =========================================================
tag   type       encoding
====  =========  =========================================================
``N`` None       —
``T`` True       —
``F`` False      —
``I`` int        2-byte length, then minimal signed big-endian magnitude
                 (NodeIds are ~128-bit, so ints are arbitrary-precision)
``D`` float      8-byte IEEE-754 double (bit-exact, NaN payload included)
``S`` str        4-byte length, then UTF-8 bytes
``B`` bytes      4-byte length, then the bytes
``L`` list       4-byte count, then the items
``U`` tuple      4-byte count, then the items (distinct from list: the
                 protocols rely on tuples staying tuples, e.g. packed
                 predicates and leaf-set refs)
``M`` dict       4-byte count, then key/value pairs in insertion order
====  =========  =========================================================

The encoding is canonical: two structurally equal messages encode to
identical bytes, and ``encode(decode(encode(m))) == encode(m)`` holds
byte-for-byte (dict insertion order is preserved through the round
trip).  Anything outside the table — callables, node objects, sets,
arbitrary classes — raises :class:`CodecError` with the offending path,
which is exactly the wire-safety lint: a payload the codec rejects is a
payload that could never have crossed a real socket.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

from repro.net.message import Message

#: Bump on any change to the frame/body layout; decoders reject mismatches.
WIRE_VERSION = 1

#: Hard cap on a single frame (16 MiB): a corrupt length prefix fails
#: fast instead of attempting a giant allocation.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_TAG_NONE = 0x4E   # 'N'
_TAG_TRUE = 0x54   # 'T'
_TAG_FALSE = 0x46  # 'F'
_TAG_INT = 0x49    # 'I'
_TAG_FLOAT = 0x44  # 'D'
_TAG_STR = 0x53    # 'S'
_TAG_BYTES = 0x42  # 'B'
_TAG_LIST = 0x4C   # 'L'
_TAG_TUPLE = 0x55  # 'U'
_TAG_DICT = 0x4D   # 'M'

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from


class CodecError(ValueError):
    """A value (or frame) the wire codec cannot represent or parse."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _encode_value(out: bytearray, value: Any, path: str) -> None:
    # Exact type checks on purpose: bool subclasses int, and subclasses
    # of the wire types (e.g. a dict-like node object) must not slip
    # through looking serializable.
    vtype = type(value)
    if value is None:
        out.append(_TAG_NONE)
    elif vtype is bool:
        out.append(_TAG_TRUE if value else _TAG_FALSE)
    elif vtype is int:
        length = (value.bit_length() + 8) // 8 or 1
        if length > 0xFFFF:
            raise CodecError(f"integer too large for the wire at {path}")
        out.append(_TAG_INT)
        out += length.to_bytes(2, "big")
        out += value.to_bytes(length, "big", signed=True)
    elif vtype is float:
        out.append(_TAG_FLOAT)
        out += _pack_double(value)
    elif vtype is str:
        try:
            data = value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CodecError(f"non-UTF-8 string at {path}: {exc}") from None
        out.append(_TAG_STR)
        out += len(data).to_bytes(4, "big")
        out += data
    elif vtype is bytes:
        out.append(_TAG_BYTES)
        out += len(value).to_bytes(4, "big")
        out += value
    elif vtype is list or vtype is tuple:
        out.append(_TAG_LIST if vtype is list else _TAG_TUPLE)
        out += len(value).to_bytes(4, "big")
        for i, item in enumerate(value):
            _encode_value(out, item, f"{path}[{i}]")
    elif vtype is dict:
        out.append(_TAG_DICT)
        out += len(value).to_bytes(4, "big")
        for key, item in value.items():
            _encode_value(out, key, f"{path}.<key {key!r}>")
            _encode_value(out, item, f"{path}[{key!r}]")
    else:
        raise CodecError(
            f"unserializable payload at {path}: {vtype.__name__} "
            f"({value!r:.80}) — carry an address/topic reference instead")


#: Frame bytes that byte accounting charges as a constant instead of
#: encoding them: the 4-byte length prefix, the version byte, ``src``,
#: ``dst``, ``hops`` and ``msg_id`` as 32-bit ints (tag + 2-byte length
#: + 4 bytes each), and an untraced ``trace`` / ``trace_ctx`` (one
#: ``None`` tag each).  A constant keeps a message's accounted size
#: independent of the process-global id counter and of tracing.
FRAME_HEADER_BYTES = 4 + 1 + 4 * 7 + 2


def frame_size(msg: Message) -> int:
    """Wire size of ``msg`` as byte accounting charges it.

    The encoded ``kind`` and ``payload`` plus :data:`FRAME_HEADER_BYTES`.
    Raises :class:`CodecError`, naming the path, for a payload the codec
    cannot carry.
    """
    out = bytearray()
    _encode_value(out, msg.kind, "kind")
    _encode_value(out, msg.payload, "payload")
    return FRAME_HEADER_BYTES + len(out)


def encode_message(msg: Message) -> bytes:
    """Serialize ``msg`` to a canonical (unframed) wire body."""
    out = bytearray()
    out.append(WIRE_VERSION)
    _encode_value(out, msg.kind, "kind")
    _encode_value(out, msg.payload, "payload")
    _encode_value(out, msg.src, "src")
    _encode_value(out, msg.dst, "dst")
    _encode_value(out, msg.hops, "hops")
    _encode_value(out, msg.msg_id, "msg_id")
    _encode_value(out, msg.trace, "trace")
    _encode_value(out, msg.trace_ctx, "trace_ctx")
    return bytes(out)


def frame(body: bytes) -> bytes:
    """Prefix ``body`` with its 4-byte big-endian length."""
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte cap")
    return len(body).to_bytes(4, "big") + body


def encode_frame(msg: Message) -> bytes:
    """Serialize ``msg`` as one length-prefixed frame, ready to write."""
    return frame(encode_message(msg))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CodecError(f"truncated frame: wanted {n} bytes at offset "
                             f"{self.pos}, {len(self.data) - self.pos} left")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def take_uint(self, n: int) -> int:
        return int.from_bytes(self.take(n), "big")


def _decode_value(reader: _Reader) -> Any:
    tag = reader.take(1)[0]
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        length = reader.take_uint(2)
        return int.from_bytes(reader.take(length), "big", signed=True)
    if tag == _TAG_FLOAT:
        return _unpack_double(reader.take(8))[0]
    if tag == _TAG_STR:
        return reader.take(reader.take_uint(4)).decode("utf-8")
    if tag == _TAG_BYTES:
        return reader.take(reader.take_uint(4))
    if tag == _TAG_LIST:
        return [_decode_value(reader) for _ in range(reader.take_uint(4))]
    if tag == _TAG_TUPLE:
        return tuple(_decode_value(reader)
                     for _ in range(reader.take_uint(4)))
    if tag == _TAG_DICT:
        count = reader.take_uint(4)
        result = {}
        for _ in range(count):
            key = _decode_value(reader)
            result[key] = _decode_value(reader)
        return result
    raise CodecError(f"unknown value tag 0x{tag:02x} at offset {reader.pos - 1}")


def decode_message(body: bytes) -> Message:
    """Parse one wire body back into a :class:`Message`.

    Rejects version mismatches, truncation, unknown tags, and trailing
    garbage; never consumes a fresh ``msg_id`` (the sender's travels on
    the wire).
    """
    reader = _Reader(body)
    version = reader.take(1)[0]
    if version != WIRE_VERSION:
        raise CodecError(f"wire version mismatch: got {version}, "
                         f"this codec speaks {WIRE_VERSION}")
    kind = _decode_value(reader)
    payload = _decode_value(reader)
    src = _decode_value(reader)
    dst = _decode_value(reader)
    hops = _decode_value(reader)
    msg_id = _decode_value(reader)
    trace = _decode_value(reader)
    trace_ctx = _decode_value(reader)
    if reader.pos != len(body):
        raise CodecError(f"{len(body) - reader.pos} trailing bytes after a "
                         f"complete message")
    if type(kind) is not str:
        raise CodecError("message kind must decode to a string")
    return Message(kind=kind, payload=payload, src=src, dst=dst, hops=hops,
                   msg_id=msg_id, trace=trace, trace_ctx=trace_ctx)


def split_frames(buffer: bytearray) -> List[bytes]:
    """Pop every complete length-prefixed frame body off ``buffer``.

    Incremental stream decoding for byte-oriented transports: append
    received bytes to ``buffer``, call this, decode each returned body.
    Bytes of a still-incomplete frame stay in the buffer.
    """
    bodies: List[bytes] = []
    while len(buffer) >= 4:
        length = int.from_bytes(buffer[:4], "big")
        if length > MAX_FRAME_BYTES:
            raise CodecError(f"frame length {length} exceeds the "
                             f"{MAX_FRAME_BYTES}-byte cap")
        if len(buffer) < 4 + length:
            break
        bodies.append(bytes(buffer[4:4 + length]))
        del buffer[:4 + length]
    return bodies


def roundtrip_check(msg: Message) -> Tuple[Message, bytes]:
    """Encode → decode → re-encode ``msg``; raise unless byte-identical.

    The sim transport's ``wire_check`` shadow mode runs every delivery
    through this, making the DES a continuous lint for wire safety.
    """
    body = encode_message(msg)
    decoded = decode_message(body)
    again = encode_message(decoded)
    if again != body:
        raise CodecError(
            f"codec round trip not byte-identical for kind={msg.kind!r} "
            f"({len(body)} vs {len(again)} bytes)")
    return decoded, body
