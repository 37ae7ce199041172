"""Canonical JSON encoding — the single preimage format for hashing and signing.

Every digest and every signature in this package is computed over the output
of :func:`canonical_bytes`: UTF-8, object keys sorted lexicographically, no
insignificant whitespace, integers in decimal, binary values as lowercase hex
strings. Floats are rejected outright (their textual form is not portable).
Two logically equal objects therefore always produce identical bytes, on any
machine, in any process. Every encode takes one walk, :func:`to_wire`, which
builds the wire form of a value or a record (``digest(header)`` takes the
record as it is) and refuses floats and non-string keys as it goes. A header
hash, like a tx id, is then computed once per object and kept on it. Every
input is parsed by :func:`loads`, and a record decodes only from the one
document it encodes to (:meth:`Record.from_dict`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
import typing
from typing import Any, Callable, ClassVar

ZERO_DIGEST = "0" * 64
ZERO_ADDRESS = "0" * 40

_HEX_RE = re.compile("[0-9a-f]*")


def canonical_dumps(obj: Any) -> str:
    """Serialize a value or a record to the canonical JSON string form."""
    return json.dumps(
        to_wire(obj),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    )


def canonical_bytes(obj: Any) -> bytes:
    """Serialize to canonical UTF-8 bytes (the hashing/signing preimage)."""
    return canonical_dumps(obj).encode("utf-8")


def _object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


def _constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


_DECODER = json.JSONDecoder(object_pairs_hook=_object, parse_constant=_constant)


def loads(text: str | bytes) -> Any:
    """The JSON value *text* (UTF-8 if bytes) holds; a repeated key, NaN or Infinity raises ValueError."""
    return _DECODER.decode(text.decode("utf-8") if isinstance(text, bytes) else text)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(obj: Any) -> str:
    """SHA-256 (lowercase hex) of the canonical bytes of *obj*."""
    if isinstance(obj, DigestLog):
        return obj.hexdigest()
    return sha256_hex(canonical_bytes(obj))


class DigestLog:
    """An append-only log that keeps only its count and a running digest.

    ``digest(log)`` equals ``digest`` of a plain list of the appended
    values, and ``len(log)`` is their count, but no value is retained.
    A log made with ``keep_digest=False`` only counts: it encodes nothing,
    and ``digest(log)`` raises rather than return a digest of nothing.
    """

    def __init__(self, keep_digest: bool = True):
        self.keep_digest = keep_digest
        self._sha = hashlib.sha256(b"[")
        self._count = 0

    def append(self, value: Any) -> None:
        if self.keep_digest:
            if self._count:
                self._sha.update(b",")
            self._sha.update(canonical_bytes(value))
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def hexdigest(self) -> str:
        if not self.keep_digest:
            raise ValueError("this log keeps only a count, not a digest")
        sha = self._sha.copy()
        sha.update(b"]")
        return sha.hexdigest()


def is_hex(value: Any, nbytes: int | None = None) -> bool:
    """True iff *value* is a lowercase hex string, optionally of *nbytes* bytes."""
    if not isinstance(value, str) or len(value) % 2:
        return False
    if nbytes is not None and len(value) != 2 * nbytes:
        return False
    return _HEX_RE.fullmatch(value) is not None


def require_hex(value: Any, nbytes: int, field: str) -> str:
    if not is_hex(value, nbytes):
        raise ValueError(f"{field} must be {nbytes} bytes of lowercase hex")
    return value


def require_int(value: Any, field: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, not {value!r}")
    return value


class Record:
    """Mixin for a frozen dataclass whose wire form is its own fields, by name.

    Each field is written through :func:`to_wire` and read back by the decoder
    ``decoders`` names for it, else by its declared type: ``str``, ``int`` and
    ``bool`` exactly, ``X | None``, a list for ``tuple[X, ...]`` or a fixed
    tuple, a sorted list with no repeats for ``frozenset[X]`` or ``set[X]``,
    an object for ``dict[str, X]``, and a record. A key that is not a field is
    refused, except a payload's ``kind`` equal to its class's. A document that
    is not the record raises ``ValueError`` naming the record or the field; a
    decoder's or ``__post_init__``'s own passes unchanged.
    """

    decoders: ClassVar[dict[str, Callable[[Any], Any]]] = {}

    def to_dict(self) -> dict:
        return {name: to_wire(getattr(self, name)) for name in _field_names(type(self))}

    @classmethod
    def from_dict(cls, d: dict):
        try:
            fields = {name: decode(d[name]) for name, decode in _field_decoders(cls)}
            if len(d) != len(fields):
                unknown, tag = sorted(d.keys() - fields.keys()), getattr(cls, "kind", None)
                if unknown != ["kind"] or tag is None or d["kind"] != tag:
                    raise ValueError(f"not a {cls.__name__}: unknown key {unknown[0]!r}")
            return cls(**fields)
        except (LookupError, TypeError, AttributeError) as exc:
            raise ValueError(f"not a {cls.__name__}: {exc!r}") from exc


_SCALARS = frozenset({str, int, bool, type(None)})


def to_wire(value: Any) -> Any:
    """The wire form of *value*; a float or a non-string key raises TypeError."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [to_wire(v) for v in value]
    if isinstance(value, dict):
        for k in value:
            if not isinstance(k, str):
                raise TypeError(f"non-string key in canonical JSON: {k!r}")
        return {k: to_wire(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return [to_wire(v) for v in sorted(value)]
    if isinstance(value, float):
        raise TypeError("floats are not allowed in canonical JSON")
    return value


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


@functools.cache
def _field_decoders(cls) -> tuple[tuple[str, Callable[[Any], Any]], ...]:
    hints = typing.get_type_hints(cls)
    return tuple(
        (n, cls.decoders.get(n) or _decoder(hints[n], f"{cls.__name__} {n}")) for n in _field_names(cls)
    )


_JSON_TYPES = {str: "a string", int: "an integer", bool: "a boolean", list: "a list", dict: "an object"}


def _decoder(tp, label: str) -> Callable[[Any], Any]:
    """The decode of a value declared *tp*; one of another shape raises ValueError naming *label*."""
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.from_dict
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if type(None) in args:  # X | None, the one union a field declares
        inner = _decoder(args[0], label)
        return lambda v: None if v is None else inner(v)
    wire = dict if origin is dict else list if args else origin
    parts = [_decoder(a, label) for a in args if a is not Ellipsis]

    def decode(v):
        if type(v) is not wire:
            raise ValueError(f"{label} must be {_JSON_TYPES[wire]}, not {v!r}")
        if not parts:
            return v
        if origin is dict:
            return {k: parts[1](x) for k, x in v.items()}
        if args[-1] is Ellipsis:
            return tuple(map(parts[0], v))
        if origin is tuple:
            if len(v) != len(parts):
                raise ValueError(f"{label} must be a list of {len(parts)}, not {v!r}")
            return tuple(part(x) for part, x in zip(parts, v))
        items = [parts[0](x) for x in v]  # a set's members, in their one order
        if any(a >= b for a, b in zip(items, items[1:])):
            raise ValueError(f"{label} must be a sorted list with no repeats, not {v!r}")
        return origin(items)
    return decode
