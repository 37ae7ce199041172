"""Pinned wire vectors: one tx id per payload kind and one full block hash.

Each value is checked twice: against ``sha256`` of a hand-written
serialization (``oracles.reference_tx_bytes`` / ``reference_block_bytes``,
which share no code with the codec or any ``to_dict``), and against a hex
digest frozen once from that reference. The wallets, payloads and Ed25519
signatures are all deterministic, so these bytes must never drift.
"""

import hashlib

import pytest

from rolechain import codec
from rolechain.ledger import Block, build_block, genesis_block, hash_header

from oracles import reference_block_bytes, reference_tx_bytes

# Frozen once from the reference serializers; in block order.
TX_IDS = {
    "register_user": "71c39a58e098fa1e14ce36f2625ca58513ac2d80c99e9df4f2ed0e7eb345b12b",
    "grant_permission": "f61db7768a26a362eee74e2d58bd5773ab6eb8fa0472aa3fbfe81968fa49ab55",
    "update_user_role": "94f2a0cf2af27c194bb03aa0cd2c3145d23fcbe9a204d7ba5f00e0ba680d69bd",
    "revoke_permission": "9bd0b479afc8d4b1e8a27c3e0d5798e505980845d7a10f3cb5c363d8cf5fe109",
}
# sha256 of the canonical bytes of the whole block, as the store's CRC line covers it.
BLOCK_HASH = "8e1a0d0c1b433075a65cd6b47db718570c4d75269cb74bd60d68be2e25c8f2b2"
HEADER_HASH = "01c8e45cdb25b39332ec90f1eb6767a628793383726c0199d75b5cf336babc85"


def _txs(txf):
    return [
        txf.register("alice", "acme", "member"),
        txf.grant("admin_acme", "acme", "member", "ledger", "read"),
        txf.update("admin_acme", "alice", "acme", "member", "auditor"),
        txf.revoke("admin_acme", "acme", "member", "ledger", "read"),
    ]


@pytest.mark.parametrize("index, kind", enumerate(TX_IDS))
def test_tx_id_pinned_per_payload_kind(txf, index, kind):
    tx = _txs(txf)[index]
    assert tx.payload.kind == kind
    ref = hashlib.sha256(reference_tx_bytes(tx)).hexdigest()
    assert tx.tx_id == ref
    assert ref == TX_IDS[kind]


def test_full_block_hash_pinned(genesis_state, txf, wallets):
    prev = genesis_block(genesis_state).header
    block = build_block(prev, _txs(txf), genesis_state, wallets["v0"].address, tick=1)
    assert len(block.transactions) == 4 and len(block.events) == 4
    ref = reference_block_bytes(block)
    assert codec.canonical_bytes(block.to_dict()) == ref
    assert Block.from_dict(block.to_dict()) == block
    assert hashlib.sha256(ref).hexdigest() == BLOCK_HASH
    assert hash_header(block.header) == HEADER_HASH
