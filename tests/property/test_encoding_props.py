"""Property tests: canonical encoding is a total, injective round-trip,
byte-identical to the recursive encoder it replaced, and sized exactly by
``encoded_size``."""

import enum
import math
import struct
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.canonical import decode, encode, encoded_size
from repro.errors import EncodingError

# The closed value space the encoder supports.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**128), max_value=2**128),
    st.floats(allow_nan=False),
    st.binary(max_size=64),
    st.text(max_size=32),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=8), children, max_size=6),
    ),
    max_leaves=20,
)


def normalize(value):
    """Tuples decode as lists; otherwise identity."""
    if isinstance(value, tuple):
        return [normalize(v) for v in value]
    if isinstance(value, list):
        return [normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    return value


@given(values)
def test_round_trip(value):
    assert decode(encode(value)) == normalize(value)


def typed(value):
    """Type-aware canonical form: Python's ``==`` conflates ``False == 0``
    and ``1 == 1.0``, but the encoding (correctly) does not."""
    if isinstance(value, (list, tuple)):
        return ("list", tuple(typed(v) for v in value))
    if isinstance(value, dict):
        return (
            "dict",
            tuple(sorted((k, typed(v)) for k, v in value.items())),
        )
    if isinstance(value, float):
        # 0.0 == -0.0 but they encode differently (distinct IEEE bits).
        import struct

        return ("float", struct.pack(">d", value))
    return (type(value).__name__, value)


@given(values, values)
def test_injective(a, b):
    if typed(a) != typed(b):
        assert encode(a) != encode(b)
    else:
        assert encode(a) == encode(b)


@given(values)
def test_encoding_deterministic(value):
    assert encode(value) == encode(value)


@given(st.binary(max_size=128))
def test_decoder_never_crashes_unexpectedly(blob):
    """Arbitrary bytes either decode or raise DecodingError — nothing else."""
    from repro.errors import DecodingError

    try:
        decode(blob)
    except DecodingError:
        pass


# ---------------------------------------------------------------------------
# Oracle: the single-pass encoder against the recursive one it replaced
# ---------------------------------------------------------------------------

_LEN = struct.Struct(">I")
_F64 = struct.Struct(">d")


def _frame(tag: bytes, payload: bytes) -> bytes:
    return tag + _LEN.pack(len(payload)) + payload


def reference_encode(value):
    """The recursive encoder the single-pass one replaced, verbatim: one
    framed ``bytes`` per node, each payload copied once per level."""
    if value is None:
        return _frame(b"N", b"")
    if isinstance(value, bool):
        return _frame(b"F", b"\x01" if value else b"\x00")
    if isinstance(value, int):
        length = (value.bit_length() + 8) // 8 or 1
        return _frame(b"I", value.to_bytes(length, "big", signed=True))
    if isinstance(value, float):
        if math.isnan(value):
            raise EncodingError("NaN has no canonical encoding")
        return _frame(b"D", _F64.pack(value))
    if isinstance(value, bytes):
        return _frame(b"B", value)
    if isinstance(value, str):
        return _frame(b"S", value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        payload = b"".join(reference_encode(item) for item in value)
        return _frame(b"L", payload)
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise EncodingError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            parts.append(reference_encode(key))
            parts.append(reference_encode(value[key]))
        return _frame(b"M", b"".join(parts))
    raise EncodingError(f"unsupported type: {type(value).__name__}")


class Str(str):
    pass


class Int(int):
    pass


class Dict(dict):
    pass


class List(list):
    pass


class Colour(str, enum.Enum):
    RED = "red"
    BLUE = "blåå"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


class Pair(NamedTuple):
    left: object
    right: object


# Surrogates are not text UTF-8 can carry (see the test below).
non_ascii = st.characters(min_codepoint=128, blacklist_categories=("Cs",))
oracle_scalars = st.one_of(
    scalars,
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, True, False, 0, 1]),
    st.sampled_from([2**2048, -(2**2048), 2**2048 - 1, -(2**2048) + 1]),
    st.integers(min_value=-(2**2100), max_value=2**2100),
    st.text(alphabet=non_ascii, max_size=16),
    st.text(max_size=16).map(Str),
    st.integers().map(Int),
    st.sampled_from(list(Colour) + list(Level)),
)
oracle_keys = st.one_of(
    st.text(max_size=8),
    st.text(alphabet=non_ascii, max_size=4),
    st.text(max_size=8).map(Str),
)
oracle_values = st.recursive(
    oracle_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(children, max_size=6).map(List),
        st.tuples(children, children).map(lambda lr: Pair(*lr)),
        st.dictionaries(oracle_keys, children, max_size=6),
        st.dictionaries(oracle_keys, children, max_size=6).map(Dict),
    ),
    max_leaves=24,
)


@given(st.one_of(values, oracle_values))
@settings(max_examples=300)
def test_encode_matches_reference(value):
    assert encode(value) == reference_encode(value)


@given(st.one_of(values, oracle_values))
@settings(max_examples=300)
def test_encoded_size_is_encode_length(value):
    assert encoded_size(value) == len(encode(value))


def _outcome(fn, value):
    try:
        fn(value)
    except Exception as exc:  # noqa: BLE001 — comparing what is raised
        return type(exc), str(exc)
    return None


#: Values every encoder must reject, by name.
BAD_LEAVES = {
    "nan": math.nan,
    "negative-nan": -math.nan,
    "object": object(),
    "set": {1, 2},
    "bytearray": bytearray(b"x"),
    "complex": 1j,
    "int-key": {1: "int key"},
    "bytes-key": {b"k": "bytes key"},
    "tuple-key": {("t",): "tuple key"},
    "subclass-int-key": Dict({2: "subclass holding an int key"}),
}


@pytest.mark.parametrize("bad", BAD_LEAVES.values(), ids=BAD_LEAVES.keys())
def test_rejections_match_reference(bad):
    for value in (bad, [1, bad], {"a": [bad]}, ("x", {"k": bad}), List([bad])):
        expected = _outcome(reference_encode, value)
        assert expected is not None and expected[0] is EncodingError
        assert _outcome(encode, value) == expected
        assert _outcome(encoded_size, value) == expected


def test_unencodable_text_matches_reference():
    for value in ("\ud800", ["ok", {"k": "x\udfff"}], {"\ud800": 1}):
        expected = _outcome(reference_encode, value)
        assert expected is not None and expected[0] is UnicodeEncodeError
        assert _outcome(encode, value) == expected
        assert _outcome(encoded_size, value) == expected


@given(
    st.recursive(
        st.sampled_from(list(BAD_LEAVES.values())),
        lambda children: st.one_of(
            st.tuples(values, children, values).map(list),
            st.builds(
                lambda v, k: {"a": v, k: v}, children, st.text(max_size=4)
            ),
        ),
        max_leaves=6,
    )
)
def test_nested_rejections_match_reference(value):
    expected = _outcome(reference_encode, value)
    assert expected is not None and expected[0] is EncodingError
    assert _outcome(encode, value) == expected
    with pytest.raises(EncodingError):
        encoded_size(value)
