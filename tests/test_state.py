import dataclasses

import pytest

from rolechain.errors import BadNonce, BadSignature, NotAuthorized, ReplayDivergence
from rolechain.ledger import Block, Chain, new_chain, replay
from rolechain.state import (
    WorldState,
    apply_transaction,
    query_roles,
    query_user,
    state_root,
)

from conftest import PASSPHRASE, make_chain
from oracles import check_integrity
from workloads import WorkloadBuilder


def test_register_user_happy_path(genesis_state, txf, wallets):
    tx = txf.register("alice", "acme", "member")
    new, events = apply_transaction(genesis_state, tx, height=1, tx_index=0)
    assert wallets["alice"].address in new.users
    assert (wallets["alice"].address, "acme", "member") in new.ura
    assert [e.kind for e in events] == ["UserRegistered"]
    assert new.nonces[wallets["alice"].address] == 1
    # the input state is untouched
    assert wallets["alice"].address not in genesis_state.users


def test_replayed_nonce_rejected(genesis_state, txf):
    tx = txf.register("alice", "acme", "member")
    s1, _ = apply_transaction(genesis_state, tx)
    before = state_root(s1)
    with pytest.raises(BadNonce):
        apply_transaction(s1, tx)
    assert state_root(s1) == before


def test_future_nonce_rejected(genesis_state, txf):
    tx = txf.register("alice", "acme", "member", nonce=5)
    with pytest.raises(BadNonce):
        apply_transaction(genesis_state, tx)


def test_non_admin_grant_rejected_atomically(genesis_state, txf):
    s1, _ = apply_transaction(genesis_state, txf.register("alice", "acme", "member"))
    before = state_root(s1)
    rogue = txf.grant("alice", "acme", "member", "ledger", "read")
    with pytest.raises(NotAuthorized):
        apply_transaction(s1, rogue)
    assert state_root(s1) == before


def test_tampered_signature_rejected(genesis_state, txf):
    tx = txf.register("alice", "acme", "member")
    bad = dataclasses.replace(tx, signature="00" * 64)
    with pytest.raises(BadSignature):
        apply_transaction(genesis_state, bad)


def test_key_not_binding_sender_rejected(genesis_state, txf, wallets):
    tx = txf.register("alice", "acme", "member")
    bad = dataclasses.replace(tx, public_key=wallets["bob"].public_key)
    with pytest.raises(BadSignature):
        apply_transaction(genesis_state, bad)


def test_registered_key_must_match(genesis_state, txf, wallets):
    s1, _ = apply_transaction(genesis_state, txf.register("alice", "acme", "member"))
    # forge a user record with a different key to hit the registered-key check
    forged = s1.clone()
    record = forged.users[wallets["alice"].address]
    forged.users[wallets["alice"].address] = dataclasses.replace(
        record, public_key=wallets["bob"].public_key
    )
    tx = txf.update("alice", "alice", "acme", "member", "contractor")
    with pytest.raises(BadSignature):
        apply_transaction(forged, tx)


def test_query_user(genesis_state, txf, wallets):
    s1, _ = apply_transaction(genesis_state, txf.register("alice", "acme", "member"))
    assert query_user(s1, wallets["alice"].address).address == wallets["alice"].address
    assert query_user(s1, "ab" * 20) is None
    # org admins are not users implicitly
    assert query_user(s1, wallets["admin_acme"].address) is None


def test_query_roles_across_orgs(genesis_state, txf, wallets):
    alice = wallets["alice"].address
    s, _ = apply_transaction(genesis_state, txf.register("alice", "acme", "member"))
    s, _ = apply_transaction(s, txf.update("admin_globex", "alice", "globex", "none", "member"))
    roles = query_roles(s, alice)
    assert roles == {"acme": {"member"}, "globex": {"member"}}
    assert query_roles(s, wallets["bob"].address) == {}

    # updating a role in acme must not touch globex
    s2, _ = apply_transaction(s, txf.update("admin_acme", "alice", "acme", "member", "auditor"))
    assert query_roles(s2, alice)["globex"] == {"member"}
    assert query_roles(s2, alice)["acme"] == {"auditor"}


def test_multi_org_isolation_per_transaction(genesis_file, genesis_state, wallets):
    wb = WorkloadBuilder(genesis_file, seed=11)
    wb.attach_admins({w.address: w for w in wallets.values()}, PASSPHRASE)
    state = genesis_state
    for tx in wb.generate(120):
        org = tx.payload.to_dict()["org"]
        new, _ = apply_transaction(state, tx)
        for triple in new.ura ^ state.ura:
            assert triple[1] == org
        for triple in new.pra ^ state.pra:
            assert triple[0] == org
        state = new


def test_referential_integrity_after_every_transaction(genesis_file, genesis_state, wallets):
    wb = WorkloadBuilder(genesis_file, seed=23)
    wb.attach_admins({w.address: w for w in wallets.values()}, PASSPHRASE)
    state = genesis_state
    check_integrity(state)
    for tx in wb.generate(150):
        state, _ = apply_transaction(state, tx)
        check_integrity(state)


def test_replay_equivalence_large_workload(genesis_file, genesis_state, wallets):
    wb = WorkloadBuilder(genesis_file, seed=5, n_users=20)
    wb.attach_admins({w.address: w for w in wallets.values()}, PASSPHRASE)
    txs = wb.generate(500)
    assert len(txs) == 500

    chain = make_chain(genesis_state, txs, proposer=wallets["v0"].address, per_block=7)
    incremental = chain.tip.header.state_root
    replayed = replay(genesis_state, chain)
    assert state_root(replayed) == incremental


def test_replay_empty_chain_returns_genesis(genesis_state):
    chain = new_chain(genesis_state)
    out = replay(genesis_state, chain)
    assert state_root(out) == state_root(genesis_state)


def test_replay_divergence_reports_height(genesis_state, txf, wallets):
    txs = [
        txf.register("alice", "acme", "member"),
        txf.register("bob", "acme", "member"),
        txf.register("carol", "acme", "member"),
        txf.register("dave", "globex", "member"),
    ]
    chain = make_chain(genesis_state, txs, proposer=wallets["v0"].address, per_block=1)
    assert chain.height == 4
    tampered_header = dataclasses.replace(chain.blocks[4].header, state_root="11" * 32)
    tampered = Chain(
        blocks=(*chain.blocks[:4],
                Block(tampered_header, chain.blocks[4].transactions, chain.blocks[4].events))
    )
    with pytest.raises(ReplayDivergence) as exc:
        replay(genesis_state, tampered)
    assert exc.value.height == 4


def test_world_state_round_trip(genesis_state, txf):
    s, _ = apply_transaction(genesis_state, txf.register("alice", "acme", "member"))
    restored = WorldState.from_dict(s.to_dict())
    assert state_root(restored) == state_root(s)
