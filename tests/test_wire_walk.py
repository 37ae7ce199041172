"""The codec's one walk, checked against the hand-written serializers.

``codec.to_wire`` is the walk every encode takes: it builds a record's wire
form and refuses floats and non-string keys as it goes. For generated
transactions of every payload kind and blocks over them, a record encodes to
the bytes of its ``to_dict()`` and of ``oracles``' reference serializers, a
header hash is the same on its first and later calls, and a store line is
the canonical form of its block and CRC. A float or a non-string key is
refused wherever it is planted.
"""

import dataclasses
import hashlib
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolechain import codec
from rolechain.ledger import Block, BlockHeader, hash_header, tx_root
from rolechain.payloads import (
    GrantPermissionPayload, RegisterUserPayload, RevokePermissionPayload, SignedTransaction,
    UpdateUserRolePayload,
)
from rolechain.state import EVENT_KINDS, Event, OrgRecord, Permission, UserRecord
from rolechain.store import Store

from oracles import reference_block_bytes, reference_header_bytes, reference_tx_bytes
from test_codec import json_values


def _hex(nbytes: int):
    return st.text("0123456789abcdef", min_size=2 * nbytes, max_size=2 * nbytes)


ids = st.text(min_size=1, max_size=12)
counts = st.integers(min_value=0, max_value=2**53)
permissions = st.builds(Permission, ids, ids)
payloads = st.one_of(
    st.builds(RegisterUserPayload, _hex(20), _hex(32), _hex(32), ids, ids),
    st.tuples(_hex(20), ids, ids, ids).filter(lambda t: t[2] != t[3]).map(
        lambda t: UpdateUserRolePayload(*t)
    ),
    st.builds(GrantPermissionPayload, ids, ids, permissions),
    st.builds(RevokePermissionPayload, ids, ids, permissions),
)
txs = st.builds(
    SignedTransaction,
    sender=_hex(20), nonce=counts, payload=payloads, public_key=_hex(32), signature=_hex(64),
)
events = st.builds(
    lambda kind, attrs, permission, height, tx_index: Event.make(
        kind, {**attrs, **({} if permission is None else {"permission": permission})},
        height, tx_index,
    ),
    st.sampled_from(EVENT_KINDS),
    st.dictionaries(ids.filter(lambda k: k != "permission"), ids, max_size=3),
    st.none() | permissions,
    counts,
    counts,
)
headers = st.builds(
    BlockHeader,
    height=counts, prev_hash=_hex(32), tx_root=_hex(32), state_root=_hex(32),
    proposer=_hex(20), timestamp=counts,
)
blocks = st.builds(
    Block,
    headers,
    st.lists(txs, max_size=3).map(tuple),
    st.lists(events, max_size=3).map(tuple),
)


class _Float(float):
    pass


# What canonical JSON cannot hold: a float (a subclass too), or an object with a
# key that is not a string, which json.dumps would otherwise write as a string.
non_string_keys = st.one_of(
    st.integers(), st.booleans(), st.none(), st.floats(), st.tuples(st.integers()),
)
floats = st.floats() | st.floats().map(_Float)
bad_values = floats | st.builds(lambda k: {k: 0}, non_string_keys)


@given(txs)
def test_a_tx_encodes_as_its_wire_dict_and_the_reference(tx):
    wire = codec.canonical_bytes(tx)
    assert wire == codec.canonical_bytes(tx.to_dict()) == reference_tx_bytes(tx)
    assert tx.tx_id == hashlib.sha256(wire).hexdigest()
    assert tx.signing_bytes() == codec.canonical_bytes(
        {"nonce": tx.nonce, "payload": tx.payload.to_dict(), "sender": tx.sender}
    )


@given(blocks)
def test_a_block_encodes_as_its_wire_dict_and_the_reference(block):
    wire = codec.canonical_bytes(block)
    assert wire == codec.canonical_bytes(block.to_dict()) == reference_block_bytes(block)
    listed = b",".join(reference_tx_bytes(tx) for tx in block.transactions)
    assert tx_root(block.transactions) == hashlib.sha256(b"[" + listed + b"]").hexdigest()


@given(headers)
def test_a_header_hashes_to_the_reference_on_every_call(header):
    expected = hashlib.sha256(reference_header_bytes(header)).hexdigest()
    assert codec.canonical_bytes(header) == reference_header_bytes(header)
    assert hash_header(header) == expected
    assert hash_header(header) == expected  # the kept digest
    assert hash_header(BlockHeader.from_dict(header.to_dict())) == expected
    # The kept digest is in no field: equality and the wire form ignore it.
    assert header == dataclasses.replace(header)
    assert sorted(header.to_dict()) == sorted(f.name for f in dataclasses.fields(header))


@settings(max_examples=30, deadline=None)
@given(blocks)
def test_a_store_line_is_the_canonical_form_of_its_block_and_crc(block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.jsonl"
        Store(path).append(block)
        line = path.read_bytes()
    crc = zlib.crc32(codec.canonical_bytes(block.to_dict()))
    expected = codec.canonical_dumps({"block": block.to_dict(), "crc32": f"{crc:08x}"})
    assert line == (expected + "\n").encode("utf-8")


def _plant(data, value, bad):
    """*value* with *bad* in place of one node, found by a drawn walk down from the top."""
    if isinstance(value, list) and value and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(value) - 1))
        return [*value[:i], _plant(data, value[i], bad), *value[i + 1:]]
    if isinstance(value, dict) and value and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(value)))
        return {**value, key: _plant(data, value[key], bad)}
    return bad


@given(json_values, bad_values, st.data())
def test_a_float_or_non_string_key_planted_in_a_value_is_refused(value, bad, data):
    with pytest.raises(TypeError):
        codec.canonical_bytes(_plant(data, value, bad))


@given(floats, st.integers(min_value=0, max_value=4))
def test_a_float_inside_a_frozenset_member_is_refused(bad, depth):
    member = bad
    for _ in range(depth):
        member = ("x", member)
    with pytest.raises(TypeError):
        codec.canonical_bytes(frozenset({member}))
    with pytest.raises(TypeError):
        codec.canonical_bytes(OrgRecord("acme", frozenset({member}), {}))


@given(txs, blocks, bad_values, non_string_keys, st.data())
def test_a_float_or_non_string_key_in_a_record_field_is_refused(tx, block, bad, key, data):
    planted_tx = dataclasses.replace(tx, signature=bad)
    planted_event = Event(EVENT_KINDS[0], (("user", bad),), 0, 0)
    planted = data.draw(st.sampled_from([
        Event(EVENT_KINDS[0], ((key, "a"),), 0, 0),
        planted_tx,
        dataclasses.replace(tx, public_key=bad),
        dataclasses.replace(block, transactions=(*block.transactions, planted_tx)),
        dataclasses.replace(block, events=(*block.events, planted_event)),
        Event(EVENT_KINDS[0], (), bad, 0),
        Event(EVENT_KINDS[0], (), 0, bad),
        UserRecord("ab" * 20, "cd" * 32, "ef" * 32, (0, bad)),
    ]))
    with pytest.raises(TypeError):
        codec.canonical_bytes(planted)
