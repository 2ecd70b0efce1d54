"""Canonical binary containers: one rule from a dataclass to its bytes.

Every key, ciphertext and proxy key the library stores or sends is a
*container*: the 4-byte magic ``TIPR``, a version byte and a kind byte,
then length-prefixed fields (a 4-byte big-endian length, then the
field's bytes).  The format is canonical — a fixed field order, no
optional parts, and decoders that accept only what the encoders write —
so byte equality of encodings is value equality, which durable key logs,
result-cache keys and the tests rely on.

One rule, :class:`Container`, writes every container from its
dataclass.  The fields go in declaration order, and each field's
annotation, read once when the container is declared, picks how it is
written:

* ``str`` as UTF-8, ``bytes`` as they are, ``int`` as its minimal
  big-endian bytes (0 is one zero byte);
* a ``Point`` as one G1 field and an ``Fp2Element`` as one GT field, in
  the pairing group's canonical encodings;
* a dataclass with a container of its own as one field holding that
  container's full encoding;
* any other dataclass as its own fields, inline.

What a dataclass does not say is a table where its container is
declared (:mod:`repro.serialization.containers` for the paper's
containers, :mod:`repro.core.api` for the wrapped envelopes of the other
schemes): the kind bytes; the typed ciphertext's wire order, its type
label before c1 and c2; and two checks run on a field as soon as it is
decoded, that params are for the decoding group and that an envelope
is for the decoding scheme.  :class:`Reader` splits a container into
its fields; :class:`Writer` builds one field by field by hand.
"""

from __future__ import annotations

import dataclasses
import operator
import typing
from typing import Any, Callable

from repro.ec.curve import Point
from repro.math.fields import Fp2Element
from repro.pairing.group import PairingGroup

__all__ = ["Writer", "Reader", "Container", "MAGIC", "VERSION", "EncodingError"]

MAGIC = b"TIPR"
VERSION = 1


class EncodingError(ValueError):
    """Malformed, truncated, or wrong-kind serialized data."""


def _int_bytes(value: int) -> bytes:
    if value < 0:
        raise EncodingError("negative integers are not encodable")
    value = int(value)  # accept bigint-backend values (gmpy2.mpz)
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")


def _bytes_int(data: bytes) -> int:
    # Only what _int_bytes writes: one zero byte for 0, no leading zero.
    if not data or (data[0] == 0 and len(data) > 1):
        raise EncodingError("integer is not minimally encoded")
    return int.from_bytes(data, "big")


class Writer:
    """Append-only canonical encoder."""

    def __init__(self, kind: int):
        if not 0 <= kind <= 255:
            raise ValueError("kind must be a byte")
        self._chunks: list[bytes] = [MAGIC, bytes([VERSION, kind])]

    def write_bytes(self, data: bytes) -> "Writer":
        if len(data) > 0xFFFFFFFF:
            raise EncodingError("field too long")
        self._chunks.append(len(data).to_bytes(4, "big"))
        self._chunks.append(data)
        return self

    def write_str(self, text: str) -> "Writer":
        return self.write_bytes(text.encode("utf-8"))

    def write_int(self, value: int) -> "Writer":
        return self.write_bytes(_int_bytes(value))

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class Reader:
    """Sequential decoder; validates magic, version and kind up front."""

    def __init__(self, data: bytes, expect_kind: int):
        if len(data) < 6:
            raise EncodingError("blob too short")
        if data[:4] != MAGIC:
            raise EncodingError("bad magic")
        if data[4] != VERSION:
            raise EncodingError("unsupported version %d" % data[4])
        if data[5] != expect_kind:
            raise EncodingError("expected kind %d, found %d" % (expect_kind, data[5]))
        self._data = data
        self._pos = 6

    def read_bytes(self) -> bytes:
        (field,) = self.read_fields(1)
        return field

    def read_fields(self, count: int) -> list[bytes]:
        """The next ``count`` fields, in order."""
        data, pos, fields = self._data, self._pos, []
        for _ in range(count):
            if pos + 4 > len(data):
                raise EncodingError("truncated length prefix")
            length = int.from_bytes(data[pos : pos + 4], "big")
            pos += 4
            if pos + length > len(data):
                raise EncodingError("truncated field")
            fields.append(data[pos : pos + length])
            pos += length
        self._pos = pos
        return fields

    def read_str(self) -> str:
        return self.read_bytes().decode("utf-8")

    def read_int(self) -> int:
        return _bytes_int(self.read_bytes())

    def finish(self) -> None:
        """Assert all bytes were consumed (canonical form has no trailer)."""
        if self._pos != len(self._data):
            raise EncodingError("%d trailing bytes" % (len(self._data) - self._pos))


# ------------------------------------------------------------ the rule

# A leaf is one length-prefixed field: ``encode(group, value)`` gives its
# bytes, ``decode(group, data)`` checks them and gives the value back.
_LEAVES: dict[Any, tuple[Callable, Callable]] = {
    str: (lambda group, text: text.encode("utf-8"), lambda group, data: data.decode("utf-8")),
    bytes: (lambda group, data: data, lambda group, data: data),
    int: (lambda group, value: _int_bytes(value), lambda group, data: _bytes_int(data)),
    Point: (PairingGroup.serialize_g1, PairingGroup.deserialize_g1),
    Fp2Element: (PairingGroup.serialize_gt, PairingGroup.deserialize_gt),
}

# A dataclass -> its own container, which a field of that type holds.
_OWN: dict[type, "Container"] = {}


def _checked(decode: Callable, check: Callable) -> Callable:
    def decode_checked(group: PairingGroup, data: bytes):
        value = decode(group, data)
        check(group, value)
        return value

    return decode_checked


def _field(hint, path: str):
    """``(writes, decode, read)`` of a field of type ``hint`` at attribute
    ``path``: a ``(getter, encode)`` per field written, and either a leaf's
    ``decode`` or ``read(group, fields)``, which takes an inline
    dataclass's fields off the iterator ``fields``."""
    container = hint if isinstance(hint, Container) else _OWN.get(hint)
    if container is not None:
        encode, decode = container.encode, container.decode
    elif hint in _LEAVES:
        encode, decode = _LEAVES[hint]
    else:  # a dataclass without a container: its fields, inline
        writes, read = _fields(hint, path + "." if path else "")
        return writes, None, read
    get = operator.attrgetter(path) if path else (lambda value: value)
    return ((get, encode),), decode, None


def _fields(cls: type, prefix: str, order=None, checks=None, overrides=None):
    """``(writes, read)`` of a dataclass's fields, in the order written."""
    hints = {**typing.get_type_hints(cls), **(overrides or {})}
    writes, steps = (), []
    for name in order or [field.name for field in dataclasses.fields(cls)]:
        field_writes, decode, read_inline = _field(hints[name], prefix + name)
        if checks and name in checks:  # run as soon as the field is decoded
            decode = _checked(decode, checks[name])
        writes += field_writes
        steps.append((name, decode, read_inline))

    def read(group: PairingGroup, fields):
        values = {}
        for name, decode, read_inline in steps:
            if read_inline is None:
                values[name] = decode(group, next(fields))
            else:
                values[name] = read_inline(group, fields)
        return cls(**values)

    return writes, read


class Container:
    """One container kind: its kind byte, then a dataclass's fields by the rule.

    ``order`` names the fields in the order written, where that is not
    the declared order.  ``checks`` maps a field name to ``check(group,
    value)``, run as soon as the field is decoded; it raises
    :class:`EncodingError`.  ``fields`` maps a field name to the
    container it holds, in place of its annotation.  A container
    declared without ``fields`` is its dataclass's own, so a field of
    that type anywhere else holds its full encoding.
    """

    def __init__(self, kind: int, cls: type, *, order=None, checks=None, fields=None):
        self.kind = kind
        self._writes, self._read = _fields(cls, "", order, checks, fields)
        if not fields:
            _OWN[cls] = self

    @classmethod
    def holding(cls, kind: int, hint) -> "Container":
        """A container of one value of type ``hint``, written as a field of
        that type is: a wrapped envelope's scheme payload."""
        container = cls.__new__(cls)
        container.kind = kind
        container._writes, decode, read_inline = _field(hint, "")
        container._read = read_inline or (lambda group, fields: decode(group, next(fields)))
        return container

    def encode(self, group: PairingGroup, value) -> bytes:
        # Writer's framing, inline: this runs for every container on the
        # request path.  to_bytes refuses a field of 4 GiB or more.
        chunks = [MAGIC, bytes((VERSION, self.kind))]
        for get, encode in self._writes:
            data = encode(group, get(value))
            chunks.append(len(data).to_bytes(4, "big"))
            chunks.append(data)
        return b"".join(chunks)

    def decode(self, group: PairingGroup, data: bytes):
        """The value ``data`` encodes; only canonical encodings are accepted."""
        reader = Reader(data, self.kind)
        fields = reader.read_fields(len(self._writes))
        reader.finish()
        return self._read(group, iter(fields))
