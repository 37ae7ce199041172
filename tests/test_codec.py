import hashlib
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rolechain import codec


def test_canonical_form_is_sorted_and_compact():
    obj = {"b": 1, "a": [1, 2, {"z": None, "y": "x"}], "c": True}
    assert codec.canonical_dumps(obj) == '{"a":[1,2,{"y":"x","z":null}],"b":1,"c":true}'


def test_canonical_bytes_utf8():
    assert codec.canonical_bytes({"k": "ü"}) == '{"k":"ü"}'.encode("utf-8")


def test_floats_rejected():
    with pytest.raises(TypeError):
        codec.canonical_dumps({"x": 1.5})
    with pytest.raises(TypeError):
        codec.canonical_dumps([1, [2.0]])


def test_non_string_keys_rejected():
    with pytest.raises(TypeError):
        codec.canonical_dumps({1: "a"})


def test_digest_matches_plain_sha256():
    obj = {"n": 42}
    expected = hashlib.sha256(b'{"n":42}').hexdigest()
    assert codec.digest(obj) == expected


def test_empty_list_digest_pinned():
    assert codec.digest([]) == "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"


def test_is_hex():
    assert codec.is_hex("00ff", 2)
    assert not codec.is_hex("00FF", 2)  # uppercase is non-canonical
    assert not codec.is_hex("0f0", None)
    assert not codec.is_hex("zz", 1)
    assert not codec.is_hex(12, 1)
    # A "$"-anchored pattern would accept a trailing newline.
    assert not codec.is_hex("00ff\n")
    assert not codec.is_hex("0ff\n")
    assert not codec.is_hex("0ff\n", 2)
    # Only ASCII 0-9 count as digits.
    assert not codec.is_hex("\u0660\u0661")  # Arabic-Indic zero, one
    assert not codec.is_hex("\uff10\uff41", 1)  # fullwidth "0a"
    assert codec.is_hex("")
    assert codec.is_hex("", 0)
    assert not codec.is_hex("", 1)


def test_require_hex_raises():
    with pytest.raises(ValueError):
        codec.require_hex("ab", 2, "field")


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


@given(json_values)
def test_canonical_round_trip_is_stable(value):
    once = codec.canonical_dumps(value)
    again = codec.canonical_dumps(json.loads(once))
    assert once == again


@given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=6))
def test_key_order_is_irrelevant(d):
    items = list(d.items())
    reordered = dict(reversed(items))
    assert codec.canonical_bytes(d) == codec.canonical_bytes(reordered)


_hex = "0123456789abcdef"
fingerprints = st.lists(
    st.fixed_dictionaries({
        "body": st.text(_hex, min_size=64, max_size=64),
        "kind": st.text(max_size=12),
        "recipient": st.text(_hex, min_size=40, max_size=40),
        "sender": st.text(_hex, min_size=40, max_size=40),
        "seq": st.integers(min_value=0, max_value=2**53),
        "tick": st.integers(min_value=0, max_value=2**53),
    }),
    max_size=12,
)


@given(fingerprints)
@example([])
def test_digest_log_digest_equals_the_digest_of_a_plain_list(entries):
    log = codec.DigestLog()
    assert len(log) == 0 and codec.digest(log) == codec.digest([])
    for i, entry in enumerate(entries, 1):
        log.append(entry)
        # Reading the digest must not end the log: later appends still count.
        assert codec.digest(log) == codec.digest(entries[:i])
        assert len(log) == i
    assert codec.digest(log) == codec.digest(list(entries))
