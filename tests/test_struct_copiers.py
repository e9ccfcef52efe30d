"""Compiled struct copiers against the codec they stand in for.

Each ``@corba_struct`` gets a straight-line copier compiled from a template
for its shape on its first ``transfer``.  For every registered struct, with
fields filled from edge cases (``bool`` against ``int``, ints on both sides
of the 64-bit boundary, non-ASCII text, ``str`` and ``int`` subclasses,
structs nested in lists, dicts and tuples), ``transfer(v)`` must give what
``decode(encode(v))`` and ``len(encode(v))`` give, and a value ``encode``
rejects must raise the same exception type and message from ``transfer``.
"""

from __future__ import annotations

import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.orb import marshal
from repro.orb.marshal import _STRUCT_REGISTRY, corba_struct, decode, encode, transfer
from tests.test_marshal_registry_roundtrip import _build_sample
from tests.test_transfer_conformance import _reachable


class Name(str):
    pass


class Count(int):
    pass


@lru_cache(maxsize=None)
def local_structs():
    """A one-field struct and one whose constructor takes the fields by
    keyword only, registered on first use so that collecting this module
    leaves the program's registry alone."""

    @corba_struct
    class CopierOneField:
        __slots__ = ("only",)
        _fields = __slots__

        def __init__(self, only=None):
            self.only = only

    @corba_struct
    class CopierKeywordCtor:
        __slots__ = ("a", "b", "c")
        _fields = __slots__

        # leading parameters differ from the fields: rebuilt by keyword
        def __init__(self, c=None, b=None, a=None):
            self.a = a
            self.b = b
            self.c = c

    return CopierOneField, CopierKeywordCtor


def _program_struct(name):
    cls, fields = _STRUCT_REGISTRY[name]
    return _build_sample(name, cls, fields)


PROGRAM_STRUCTS = sorted(_STRUCT_REGISTRY)
LOCAL_STRUCTS = ["CopierOneField", "CopierKeywordCtor"]

INT_BOUNDARY = 1 << 63
IN_RANGE_INTS = [-INT_BOUNDARY, -INT_BOUNDARY + 1, INT_BOUNDARY - 1, 0, 1, -1]
OUT_OF_RANGE_INTS = [-INT_BOUNDARY - 1, INT_BOUNDARY, 1 << 70]

encodable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(IN_RANGE_INTS),
    st.integers(-INT_BOUNDARY, INT_BOUNDARY - 1),
    st.sampled_from(IN_RANGE_INTS).map(Count),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["é", "日本語", "\U0001f600", "naïve ✓"]),
    st.text(max_size=6).map(Name),
    st.binary(max_size=6),
)

unencodable_leaves = st.one_of(
    st.sampled_from(OUT_OF_RANGE_INTS),
    st.sampled_from(OUT_OF_RANGE_INTS).map(Count),
    st.just("\ud800"),  # a lone surrogate has no UTF-8 encoding
    st.builds(object),
    st.builds(bytearray),
)


def _nested_struct(children):
    """Structs that may sit inside containers: program samples as built, or
    the local structs, whose constructors accept any field values."""
    return st.one_of(
        st.sampled_from(PROGRAM_STRUCTS).map(_program_struct),
        children.map(lambda v: local_structs()[0](v)),
        st.tuples(children, children, children).map(
            lambda abc: local_structs()[1](a=abc[0], b=abc[1], c=abc[2])
        ),
    )


def values(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.lists(children, max_size=3).map(tuple),
            # keys are hashable, so drawn from the encodable leaves only
            st.dictionaries(encodable_leaves, children, max_size=3),
            _nested_struct(children),
        ),
        max_leaves=5,
    )


def _struct_with_fields(data, name, leaves):
    """``name``'s sample with some fields overwritten by drawn values.

    Fields are set on the built sample, so the constructor first sees the
    drawn values on ``decode`` (and in the copier), where both must agree.
    """
    if name in LOCAL_STRUCTS:
        cls = dict(zip(LOCAL_STRUCTS, local_structs()))[name]
        sample = cls()
    else:
        sample = _program_struct(name)
        cls = type(sample)
    fields = _STRUCT_REGISTRY[cls._wire_name][1]
    for field in fields:
        if data.draw(st.booleans(), label=f"replace {field}"):
            setattr(sample, field, data.draw(values(leaves), label=field))
    return sample


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        # a constructor's message may show reprs of the fresh field copies
        # it was given; their addresses differ between any two copies
        return "raised", (type(exc), re.sub(r" at 0x[0-9a-f]+", "", str(exc)))


def _codec(value):
    data = encode(value)
    return decode(data), len(data)


def _assert_transfer_matches_codec(value):
    expected = _outcome(lambda: _codec(value))
    actual = _outcome(lambda: transfer(value))
    if expected[0] == "raised" or actual[0] == "raised":
        assert actual == expected
        return
    (decoded, length), (copy, size) = expected[1], actual[1]
    assert size == length
    assert type(copy) is type(decoded)
    assert encode(copy) == encode(decoded)
    shared = {id(v) for v in _reachable(value)} & {id(v) for v in _reachable(copy)}
    assert not shared, "the copy shares a list, dict or struct with the original"


@pytest.mark.parametrize("name", PROGRAM_STRUCTS + LOCAL_STRUCTS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_copier_equals_codec_on_encodable_fields(name, data):
    value = _struct_with_fields(data, name, encodable_leaves)
    _assert_transfer_matches_codec(value)
    # the second transfer runs the installed compiled copier
    _assert_transfer_matches_codec(value)


@pytest.mark.parametrize("name", PROGRAM_STRUCTS + LOCAL_STRUCTS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_copier_raises_what_encode_raises(name, data):
    value = _struct_with_fields(data, name, st.one_of(encodable_leaves, unencodable_leaves))
    _assert_transfer_matches_codec(value)


@settings(max_examples=100, deadline=None)
@given(value=values(st.one_of(encodable_leaves, unencodable_leaves)))
def test_nested_values_transfer_like_the_codec(value):
    _assert_transfer_matches_codec(value)


def test_unencodable_field_raises_at_send_time():
    one_field, keyword = local_structs()
    with pytest.raises(marshal.MarshalError) as raised:
        transfer([keyword(a=1, b=object(), c=2)])
    assert raised.value.args[0].startswith("cannot marshal object")
    with pytest.raises(Exception) as by_encode:
        encode(one_field(1 << 63))
    with pytest.raises(type(by_encode.value), match=str(by_encode.value)):
        transfer(one_field(1 << 63))


def test_bool_and_int_fields_keep_their_type():
    one_field, _keyword = local_structs()
    for leaf in (True, 1, False, 0):
        copy, size = transfer(one_field(leaf))
        assert type(copy.only) is type(leaf) and copy.only == leaf
        assert size == len(encode(one_field(leaf)))


def test_first_transfer_installs_the_compiled_copier():
    one_field, keyword = local_structs()
    for cls, shape in ((one_field, (1, True)), (keyword, (3, False))):
        transfer(cls())
        assert marshal._COPIERS[cls].__name__ == f"copy_struct_{shape[0]}"
        assert shape in marshal._COPIER_TEMPLATES


def test_importing_the_program_compiles_no_copier():
    src = Path(marshal.__file__).resolve().parents[2]
    code = (
        "import repro, repro.core.messages, repro.groupcomm.messages, "
        "repro.orb.messages; from repro.orb import marshal; "
        "assert not marshal._COPIER_TEMPLATES, marshal._COPIER_TEMPLATES"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(src)})
