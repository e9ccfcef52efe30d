"""A compact CDR-style wire codec, and the copy that stands in for it.

The simulation needs two things from marshalling, and neither is the bytes:

- honest wire sizes (serialisation delay and per-byte CPU costs are computed
  from the encoded length), and
- full isolation between "address spaces" (no shared mutable state can leak
  between simulated nodes).

:func:`transfer` provides both in one recursive walk: it returns exactly
what ``decode(encode(value))`` and ``len(encode(value))`` would, without
building the byte string.  Immutable leaves are shared, containers and
registered structs are rebuilt, and anything else goes through the real
codec, so a value :func:`encode` rejects is rejected at send time too.
Every remote ORB hop carries a ``transfer`` copy; :func:`encode` and
:func:`decode` define the wire format that copy is equivalent to.

Supported values: None, bool, int, float, str, bytes, list, tuple, dict, and
any class registered with :func:`corba_struct` (encoded field-by-field in
declaration order).

Both the codec and ``transfer`` dispatch on exact type through tables that
include a dedicated entry per registered struct, built at registration
(see docs/PERFORMANCE.md); subclasses fall back to an ``isinstance`` walk.
"""

from __future__ import annotations

import inspect
import struct
from operator import attrgetter
from typing import Any, Callable, Dict, List, Tuple, Type

__all__ = ["corba_struct", "encode", "decode", "transfer", "wire_size", "MarshalError"]


class MarshalError(ValueError):
    """Raised on unencodable values or corrupt byte streams."""


_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"d"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"L"
_TAG_TUPLE = b"t"
_TAG_DICT = b"D"
_TAG_STRUCT = b"S"

_STRUCT_REGISTRY: Dict[str, Tuple[Type, Tuple[str, ...]]] = {}

# ---------------------------------------------------------------------------
# fast-path tables (populated below and by corba_struct at registration time)
# ---------------------------------------------------------------------------

#: exact-type -> encoder(value, out); misses fall back to the isinstance walk
_ENCODERS: Dict[type, Callable[[Any, List[bytes]], None]] = {}

#: raw wire name -> (cls, fields, positional_ctor, nfields)
_STRUCT_DECODERS: Dict[bytes, Tuple[Type, Tuple[str, ...], bool, int]] = {}

#: exact-type -> copier(value) -> (copy, wire size); misses fall back to
#: a round trip through the codec
_COPIERS: Dict[type, Callable[[Any], Tuple[Any, int]]] = {}

_pack_q = struct.Struct(">q").pack
_pack_d = struct.Struct(">d").pack
_pack_I = struct.Struct(">I").pack
_unpack_q_from = struct.Struct(">q").unpack_from
_unpack_d_from = struct.Struct(">d").unpack_from
_unpack_I_from = struct.Struct(">I").unpack_from


def _ctor_takes_fields_positionally(cls: Type, fields: Tuple[str, ...]) -> bool:
    """True when ``cls(*field_values)`` is equivalent to ``cls(**kwargs)`` —
    i.e. the constructor's leading parameters are exactly the wire fields."""
    try:
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    except (TypeError, ValueError):
        return False
    positional = [
        p.name
        for p in params
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    return tuple(positional[: len(fields)]) == fields


def corba_struct(cls: Type) -> Type:
    """Class decorator: register a value type for wire marshalling.

    The class must expose ``_fields`` (a tuple of attribute names) or be
    introspectable via ``__slots__``.  Decoding and :func:`transfer` rebuild
    instances through the constructor: positionally when its leading
    parameters are exactly the fields, else with the fields as keywords.
    """
    fields = getattr(cls, "_fields", None)
    if fields is None:
        slots = getattr(cls, "__slots__", None)
        if slots is None:
            raise MarshalError(
                f"{cls.__name__} needs _fields or __slots__ for marshalling"
            )
        fields = tuple(slots)
    name = cls.__name__
    if name in _STRUCT_REGISTRY and _STRUCT_REGISTRY[name][0] is not cls:
        raise MarshalError(f"duplicate struct name {name!r}")
    fields = tuple(fields)
    _STRUCT_REGISTRY[name] = (cls, fields)
    cls._wire_name = name

    raw = name.encode("utf-8")
    header = _TAG_STRUCT + _pack_I(len(raw)) + raw
    getter = attrgetter(*fields)
    nfields = len(fields)
    positional = _ctor_takes_fields_positionally(cls, fields)
    _ENCODERS[cls] = _make_struct_encoder(header, getter, nfields)
    _STRUCT_DECODERS[raw] = (cls, fields, positional, nfields)
    _COPIERS[cls] = _make_struct_copier(
        cls, fields, positional, len(header), getter, nfields
    )
    return cls


def _make_struct_encoder(header: bytes, getter: Callable, nfields: int):
    get = _ENCODERS.get
    if nfields == 1:
        def enc_struct(value, out):
            out.append(header)
            v = getter(value)
            ((get(v.__class__)) or _encode_fallback)(v, out)
    else:
        def enc_struct(value, out):
            out.append(header)
            for v in getter(value):
                ((get(v.__class__)) or _encode_fallback)(v, out)
    return enc_struct


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _enc_none(value, out):
    out.append(_TAG_NONE)


def _enc_bool(value, out):
    out.append(_TAG_TRUE if value else _TAG_FALSE)


def _enc_int(value, out):
    out.append(_TAG_INT)
    out.append(_pack_q(value))


def _enc_float(value, out):
    out.append(_TAG_FLOAT)
    out.append(_pack_d(value))


def _enc_str(value, out):
    raw = value.encode("utf-8")
    out.append(_TAG_STR)
    out.append(_pack_I(len(raw)))
    out.append(raw)


def _enc_bytes(value, out):
    out.append(_TAG_BYTES)
    out.append(_pack_I(len(value)))
    out.append(value)


def _enc_list(value, out):
    out.append(_TAG_LIST)
    out.append(_pack_I(len(value)))
    get = _ENCODERS.get
    for item in value:
        ((get(item.__class__)) or _encode_fallback)(item, out)


def _enc_tuple(value, out):
    out.append(_TAG_TUPLE)
    out.append(_pack_I(len(value)))
    get = _ENCODERS.get
    for item in value:
        ((get(item.__class__)) or _encode_fallback)(item, out)


def _enc_dict(value, out):
    out.append(_TAG_DICT)
    out.append(_pack_I(len(value)))
    get = _ENCODERS.get
    for key, item in value.items():
        ((get(key.__class__)) or _encode_fallback)(key, out)
        ((get(item.__class__)) or _encode_fallback)(item, out)


_ENCODERS[type(None)] = _enc_none
_ENCODERS[bool] = _enc_bool
_ENCODERS[int] = _enc_int
_ENCODERS[float] = _enc_float
_ENCODERS[str] = _enc_str
_ENCODERS[bytes] = _enc_bytes
_ENCODERS[list] = _enc_list
_ENCODERS[tuple] = _enc_tuple
_ENCODERS[dict] = _enc_dict


def _encode_fallback(value: Any, out: List[bytes]) -> None:
    """Subclasses and unregistered types: the original isinstance walk."""
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        out.append(_pack_q(value))
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.append(_pack_d(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        out.append(_pack_I(len(raw)))
        out.append(raw)
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        out.append(_pack_I(len(value)))
        out.append(value)
    elif isinstance(value, list):
        _enc_list(value, out)
    elif isinstance(value, tuple):
        _enc_tuple(value, out)
    elif isinstance(value, dict):
        _enc_dict(value, out)
    else:
        wire_name = getattr(type(value), "_wire_name", None)
        if wire_name is None or wire_name not in _STRUCT_REGISTRY:
            raise MarshalError(f"cannot marshal {type(value).__name__}: {value!r}")
        # a subclass of a registered struct: encode as the registered base
        _cls, fields = _STRUCT_REGISTRY[wire_name]
        raw = wire_name.encode("utf-8")
        out.append(_TAG_STRUCT)
        out.append(_pack_I(len(raw)))
        out.append(raw)
        get = _ENCODERS.get
        for field in fields:
            v = getattr(value, field)
            ((get(v.__class__)) or _encode_fallback)(v, out)


def encode(value: Any) -> bytes:
    """Encode ``value`` to its wire representation."""
    out: List[bytes] = []
    enc = _ENCODERS.get(value.__class__)
    (enc or _encode_fallback)(value, out)
    return b"".join(out)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

# tag bytes as ints (what ``data[pos]`` yields), ordered by hot-path frequency
_B_INT = _TAG_INT[0]
_B_STR = _TAG_STR[0]
_B_FLOAT = _TAG_FLOAT[0]
_B_NONE = _TAG_NONE[0]
_B_STRUCT = _TAG_STRUCT[0]
_B_DICT = _TAG_DICT[0]
_B_TUPLE = _TAG_TUPLE[0]
_B_LIST = _TAG_LIST[0]
_B_TRUE = _TAG_TRUE[0]
_B_FALSE = _TAG_FALSE[0]
_B_BYTES = _TAG_BYTES[0]


def _decode_at(data: bytes, pos: int) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _B_INT:
        return _unpack_q_from(data, pos)[0], pos + 8
    if tag == _B_STR:
        n = _unpack_I_from(data, pos)[0]
        end = pos + 4 + n
        raw = data[pos + 4 : end]
        if len(raw) != n:
            raise MarshalError("truncated stream")
        return raw.decode("utf-8"), end
    if tag == _B_FLOAT:
        return _unpack_d_from(data, pos)[0], pos + 8
    if tag == _B_NONE:
        return None, pos
    if tag == _B_STRUCT:
        n = _unpack_I_from(data, pos)[0]
        end = pos + 4 + n
        raw = data[pos + 4 : end]
        if len(raw) != n:
            raise MarshalError("truncated stream")
        entry = _STRUCT_DECODERS.get(raw)
        if entry is None:
            raise MarshalError(f"unknown struct {raw.decode('utf-8')!r} on the wire")
        cls, fields, positional, nfields = entry
        pos = end
        values = []
        append = values.append
        for _ in range(nfields):
            v, pos = _decode_at(data, pos)
            append(v)
        if positional:
            return cls(*values), pos
        return cls(**dict(zip(fields, values))), pos
    if tag == _B_DICT:
        n = _unpack_I_from(data, pos)[0]
        pos += 4
        result = {}
        for _ in range(n):
            key, pos = _decode_at(data, pos)
            value, pos = _decode_at(data, pos)
            result[key] = value
        return result, pos
    if tag == _B_TUPLE:
        n = _unpack_I_from(data, pos)[0]
        pos += 4
        values = []
        append = values.append
        for _ in range(n):
            v, pos = _decode_at(data, pos)
            append(v)
        return tuple(values), pos
    if tag == _B_LIST:
        n = _unpack_I_from(data, pos)[0]
        pos += 4
        values = []
        append = values.append
        for _ in range(n):
            v, pos = _decode_at(data, pos)
            append(v)
        return values, pos
    if tag == _B_TRUE:
        return True, pos
    if tag == _B_FALSE:
        return False, pos
    if tag == _B_BYTES:
        n = _unpack_I_from(data, pos)[0]
        end = pos + 4 + n
        raw = data[pos + 4 : end]
        if len(raw) != n:
            raise MarshalError("truncated stream")
        return raw, end
    raise MarshalError(f"unknown tag {bytes((tag,))!r}")


def decode(data: bytes) -> Any:
    """Decode a value previously produced by :func:`encode`."""
    try:
        value, pos = _decode_at(data, 0)
    except IndexError:
        raise MarshalError("truncated stream") from None
    except struct.error:
        raise MarshalError("truncated stream") from None
    if pos != len(data):
        raise MarshalError("trailing bytes after value")
    return value


# ---------------------------------------------------------------------------
# transfer: copy and size in one walk
# ---------------------------------------------------------------------------

_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1


def _tr_none(value):
    return None, 1


def _tr_bool(value):
    return value, 1


def _tr_int(value):
    if _INT_MIN <= value <= _INT_MAX:
        return value, 9
    return _transfer_fallback(value)  # raises struct.error, like encode


def _tr_float(value):
    return value, 9


def _tr_str(value):
    # utf-8 length == str length for ASCII, the overwhelming case
    return value, 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))


def _tr_bytes(value):
    return value, 5 + len(value)


def _tr_list(value):
    n = 5
    out = []
    append = out.append
    get = _COPIERS.get
    for item in value:
        item, size = ((get(item.__class__)) or _transfer_fallback)(item)
        append(item)
        n += size
    return out, n


def _tr_tuple(value):
    out, n = _tr_list(value)
    return tuple(out), n


def _tr_dict(value):
    n = 5
    out = {}
    get = _COPIERS.get
    for key, item in value.items():
        key, key_size = ((get(key.__class__)) or _transfer_fallback)(key)
        item, item_size = ((get(item.__class__)) or _transfer_fallback)(item)
        out[key] = item
        n += key_size + item_size
    return out, n


_COPIERS[type(None)] = _tr_none
_COPIERS[bool] = _tr_bool
_COPIERS[int] = _tr_int
_COPIERS[float] = _tr_float
_COPIERS[str] = _tr_str
_COPIERS[bytes] = _tr_bytes
_COPIERS[list] = _tr_list
_COPIERS[tuple] = _tr_tuple
_COPIERS[dict] = _tr_dict


def _make_struct_copier(
    cls: Type,
    fields: Tuple[str, ...],
    positional: bool,
    header_len: int,
    getter: Callable,
    nfields: int,
):
    """Rebuild a struct through the same constructor call ``decode`` uses."""
    get = _COPIERS.get
    if nfields == 1:
        # a one-field attrgetter returns the value itself, not a 1-tuple
        (field,) = fields

        def tr_struct(value):
            v = getter(value)
            v, size = ((get(v.__class__)) or _transfer_fallback)(v)
            return (cls(v) if positional else cls(**{field: v})), header_len + size
    else:
        def tr_struct(value):
            n = header_len
            values = []
            append = values.append
            for v in getter(value):
                v, size = ((get(v.__class__)) or _transfer_fallback)(v)
                append(v)
                n += size
            if positional:
                return cls(*values), n
            return cls(**dict(zip(fields, values))), n
    return tr_struct


def _transfer_fallback(value: Any) -> Tuple[Any, int]:
    """Subclasses, out-of-range ints and unregistered types: the real codec
    (raises exactly what :func:`encode` raises for unencodable values)."""
    data = encode(value)
    return decode(data), len(data)


def transfer(value: Any) -> Tuple[Any, int]:
    """``(decode(encode(value)), len(encode(value)))`` without the bytes.

    The copy shares only immutable leaves with ``value``; every list, dict,
    tuple and struct in it is freshly built, so the receiver can neither
    see nor make later mutations on the sender's side.
    """
    return ((_COPIERS.get(value.__class__)) or _transfer_fallback)(value)


def wire_size(value: Any) -> int:
    """Encoded size in bytes, computed without building the byte string."""
    return transfer(value)[1]
