"""Per-block folds against the per-transaction fold, over random transaction sequences.

A block fold (``build_block``, ``execute_block``, a proposer's
``_select_txs``) copies its input state once and executes every transaction
in place. The reference folds the same transactions one
``apply_transaction`` at a time, each on a fresh copy. Sequences mix in
transactions that fail in mid-block: a duplicate grant, a full role, a bad
nonce and a wrong signature. Both sides must reach the same state value,
``state_root`` and events, fail at the same index with the same code, and
leave the input state as it was.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rolechain import consensus
from rolechain.consensus import Network, NetworkConfig
from rolechain.errors import InvalidTransaction, TransactionError
from rolechain.ledger import build_block, execute_block, new_chain, seal_block
from rolechain.state import apply_transaction, expected_nonce, state_root

from conftest import TxFactory

USERS = ["alice", "bob", "carol", "dave"]

# Each op names its signer; its outcome depends on the state it meets.
_OPS = st.one_of(
    st.tuples(st.just("register"), st.sampled_from(USERS),
              st.sampled_from(["member", "contractor", "auditor"])),
    st.tuples(st.just("update"), st.sampled_from(["admin_acme", "admin_acme", "carol", "dave"]),
              st.sampled_from(USERS), st.sampled_from(["none", "member", "contractor"]),
              st.sampled_from(["owner", "auditor", "contractor", "contractor"]),
              ).filter(lambda op: op[3] != op[4]),
    st.tuples(st.just("grant"), st.sampled_from(["admin_acme", "admin_acme", "alice"]),
              st.sampled_from(["member", "auditor"]), st.just("r0")),
    st.tuples(st.just("revoke"), st.sampled_from(["admin_acme", "admin_acme", "alice"]),
              st.sampled_from(["member", "auditor"]), st.just("r0")),
)
# How an op's envelope is spoiled: not at all, a nonce off by one, or a signature
# taken from another body.
_SPOIL = st.sampled_from([None] * 5 + ["nonce_ahead", "nonce_behind", "signature"])
_BLOCKS = st.lists(st.lists(st.tuples(_OPS, _SPOIL), min_size=1, max_size=6),
                   min_size=1, max_size=3)


def _ok(*op):
    return (op, None)


# The first block fills the capped role "contractor" (two holders), so later
# registrations and updates into it fail with RoleFull.
_OPENING = [
    _ok("register", "alice", "contractor"),
    _ok("register", "bob", "contractor"),
    _ok("register", "carol", "member"),
]


def _sign(txf: TxFactory, op, nonce: int):
    kind, signer, *args = op
    if kind == "register":
        return txf.register(signer, "acme", args[0], nonce=nonce)
    if kind == "update":
        user, old, new = args
        return txf.update(signer, user, "acme", old, new, nonce=nonce)
    role, resource = args
    edit = txf.grant if kind == "grant" else txf.revoke
    return edit(signer, "acme", role, resource, "read", nonce=nonce)


def _transactions(txf: TxFactory, state, ops, height: int) -> list:
    """Sign *ops* in order, each with the nonce the transactions before it leave."""
    txs = []
    for i, (op, spoil) in enumerate(ops):
        nonce = expected_nonce(state, txf.wallets[op[1]].address)
        if spoil == "nonce_ahead" or (spoil == "nonce_behind" and nonce == 0):
            nonce += 1
        elif spoil == "nonce_behind":
            nonce -= 1
        tx = _sign(txf, op, nonce)
        if spoil == "signature":
            other = _sign(txf, ("grant", op[1], "member", "elsewhere"), nonce)
            tx = dataclasses.replace(tx, signature=other.signature)
        txs.append(tx)
        try:
            state, _ = apply_transaction(state, tx, height=height, tx_index=i)
        except TransactionError:
            pass
    return txs


def _reference_block(state, txs, height: int):
    """(post, events, None) of the per-tx fold, or (None, None, (index, code)) if it fails."""
    events = []
    for i, tx in enumerate(txs):
        try:
            state, evs = apply_transaction(state, tx, height=height, tx_index=i)
        except TransactionError as exc:
            return None, None, (i, exc.code)
        events += evs
    return state, events, None


def _reference_selection(state, mempool: list, height: int):
    """The per-tx fold of a proposer's greedy walk: (selected, post, events, dead)."""
    selected, events, dead = [], [], []
    for tx in mempool:
        expected = expected_nonce(state, tx.sender)
        if tx.nonce > expected:
            continue
        if tx.nonce < expected:
            dead.append(tx.tx_id)
            continue
        try:
            state, evs = apply_transaction(state, tx, height=height, tx_index=len(selected))
        except TransactionError:
            dead.append(tx.tx_id)
            continue
        selected.append(tx)
        events += evs
    return selected, state, events, dead


def _same_state(a, b) -> None:
    assert a.to_dict() == b.to_dict()
    assert state_root(a) == state_root(b)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(blocks=_BLOCKS, seed=st.integers(0, 2**32))
# Each failure kind once with a transaction after it that the failure must not
# have touched: a full role on registration and on update, a revoke by a
# non-admin, and a duplicate grant.
@example(blocks=[[_ok("register", "dave", "contractor"), _ok("register", "dave", "member")]],
         seed=0)
@example(blocks=[[_ok("update", "admin_acme", "carol", "member", "contractor"),
                  _ok("update", "admin_acme", "carol", "member", "auditor")]], seed=0)
@example(blocks=[[_ok("grant", "admin_acme", "member", "r0"),
                  _ok("revoke", "alice", "member", "r0"),
                  _ok("revoke", "admin_acme", "member", "r0")]], seed=0)
@example(blocks=[[_ok("grant", "admin_acme", "member", "r0"),
                  _ok("grant", "admin_acme", "member", "r0"),
                  _ok("revoke", "admin_acme", "member", "r0")]], seed=0)
def test_block_folds_equal_the_per_transaction_fold(wallets, genesis_file, genesis_state,
                                                    blocks, seed):
    txf = TxFactory(wallets)
    proposer = genesis_file.validators[0]
    net = Network(NetworkConfig(validators=list(genesis_file.validators)), genesis_state)
    node = net.nodes[proposer]
    chain = new_chain(genesis_state)
    committed = genesis_state
    for ops in [_OPENING, *blocks]:
        height = chain.height + 1
        txs = _transactions(txf, committed, ops, height)
        before = committed.to_dict()

        # A proposer's selection over the same transactions, in signing order and
        # in a random arrival order; a mempool holds each tx id once.
        for arrivals in (txs, random.Random(seed).sample(txs, len(txs))):
            mempool = list({tx.tx_id: tx for tx in arrivals}.values())
            node.chain, node.state = chain, committed
            node.mempool = {tx.tx_id: (tx, 0) for tx in mempool}
            want_selected, want_post, want_events, want_dead = _reference_selection(
                committed, mempool, height)
            selected, post, events = consensus._select_txs(node)
            assert selected == want_selected and events == want_events
            _same_state(post, want_post)
            assert set(node.mempool) == {tx.tx_id for tx in mempool} - set(want_dead)
            assert node.state is committed and committed.to_dict() == before

        # The block over the transactions in signing order, built and then executed.
        ref_post, ref_events, failure = _reference_block(committed, txs, height)
        try:
            block = build_block(chain.tip.header, txs, committed, proposer, height)
        except InvalidTransaction as exc:
            assert (exc.index, exc.reason) == failure
            # A replica executing a block that holds the same transactions fails there too.
            sealed = seal_block(chain.tip.header, txs, committed, [], proposer, height)
            with pytest.raises(InvalidTransaction) as replayed:
                execute_block(committed, sealed)
            assert (replayed.value.index, replayed.value.reason) == failure
            assert committed.to_dict() == before
            continue
        assert failure is None and list(block.events) == ref_events
        assert block.header.state_root == state_root(ref_post)
        post = execute_block(committed, block)
        _same_state(post, ref_post)
        assert committed.to_dict() == before
        chain = dataclasses.replace(chain, blocks=(*chain.blocks, block))
        committed = post
