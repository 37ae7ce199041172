"""Shared records per broadcast, and node memory that grows with the state.

A message body carries its sender's own block or transaction (both are
frozen), so the recipients of one broadcast hold the same object, and each
still checks it. A network keeps the message trace only as a count and a
running digest (a serving node's only as a count), so a write that does not
grow the state retains little beyond its block, however many messages it took.
"""

import dataclasses
import gc
import tracemalloc

import pytest

from conftest import TxFactory, committed_heights
from rolechain import consensus
from rolechain.api import NodeHandle
from rolechain.consensus import (
    MAX_BLOCK_TXS, PROPOSAL, SYNC_RESPONSE, TX_GOSSIP, VOTE, Message, Network, NetworkConfig,
    step, step_until_quiescent, submit_tx,
)
from rolechain.ledger import build_block, hash_header
from rolechain.store import build_genesis_state


def _network(genesis_file):
    # A fresh genesis state per network, as a node starts with.
    vals = list(genesis_file.validators)
    return Network(NetworkConfig(validators=vals, rng_seed=5), build_genesis_state(genesis_file)), vals


def _deliver_broadcast(net, kind, sender, body):
    """Broadcast *body* and hand each copy to its recipient at once."""
    net.broadcast(kind, sender, body)
    sent, net.queue = net.queue, []
    for msg in sent:
        consensus._handle(net, net.nodes[msg.recipient], msg)
    return sent


def _proposal(net, vals, txf):
    proposer = net.nodes[vals[1]]  # proposer_for(1, 0)
    block = build_block(
        proposer.chain.tip.header, [txf.register("alice", "acme", "member")],
        proposer.state, proposer.id, 1,
    )
    return block, {"height": 1, "view": 0, "proposer": proposer.id, "block": block}


def test_recipients_of_one_proposal_hold_the_same_block(genesis_file, txf):
    net, vals = _network(genesis_file)
    block, body = _proposal(net, vals, txf)
    _deliver_broadcast(net, PROPOSAL, vals[1], body)
    held = [node.round.proposals[hash_header(block.header)][0] for node in net.nodes.values()]
    assert all(b is block for b in held)
    assert sorted(m.sender for m in net.queue if m.kind == VOTE) == sorted(vals * 4)


@pytest.mark.parametrize("breakage", ["forged signature", "foreign public key"])
def test_bad_gossip_is_dropped_by_every_recipient_and_later_txs_commit(
    genesis_file, txf, wallets, breakage
):
    """Gossip that skipped admission's envelope check fails the one in every fold."""
    net, vals = _network(genesis_file)
    tx = txf.register("bob", "acme", "member")
    if breakage == "forged signature":
        bad = dataclasses.replace(tx, signature="11" * 64)
    else:
        bad = dataclasses.replace(tx, public_key=wallets["alice"].public_key)
    net.broadcast(TX_GOSSIP, vals[0], {"tx": bad})
    assert step_until_quiescent(net, 50)  # step() raised nothing
    assert all(node.mempool == {} for node in net.nodes.values())
    assert all(n.chain.height == 0 for n in net.nodes.values())

    ok, _, tx_id = submit_tx(net, txf.register("alice", "acme", "member"))
    assert ok and step_until_quiescent(net, 100)
    assert all(committed_heights(n.chain) == {tx_id: 1} for n in net.nodes.values())


def _refused_message(case, vals, block, proposal):
    """(kind, sender, body) of a message that replica vals[0] must refuse in *case*."""
    if case == "sync block fails validation":
        bad = dataclasses.replace(block, events=())  # its replay disagrees
        return SYNC_RESPONSE, vals[1], {"blocks": [bad, block]}
    if case == "round message without height":
        return PROPOSAL, vals[1], {k: v for k, v in proposal.items() if k != "height"}
    return PROPOSAL, vals[2], {**proposal, "proposer": vals[2]}  # not proposer_for(1, 0)


@pytest.mark.parametrize("case", [
    "sync block fails validation",
    "round message without height", "proposal from a node that is not its proposer",
])
def test_refused_message_changes_nothing_and_later_txs_commit(genesis_file, txf, case):
    """A valid block 1 follows the refused one in each sync response: the rest is dropped."""
    net, vals = _network(genesis_file)
    node = net.nodes[vals[0]]
    block, proposal = _proposal(net, vals, txf)
    kind, sender, body = _refused_message(case, vals, block, proposal)
    net.seq += 1
    net.queue.append(Message(kind, sender, node.id, body, net.tick + 1, net.seq))
    step(net)  # raised nothing
    assert node.chain.height == 0 and node.mempool == {}
    assert not node.round.pending() and node.sync_inflight_until == -1
    assert not [m for m in net.queue if m.kind == VOTE]

    ok, _, tx_id = submit_tx(net, txf.register("bob", "acme", "member"))
    assert ok and step_until_quiescent(net, 100)
    assert all(tx_id in committed_heights(n.chain) for n in net.nodes.values())


def test_a_block_takes_max_block_txs_and_the_next_ready_tx_commits_after(genesis_file, txf):
    net, vals = _network(genesis_file)
    txs = [
        txf.grant("admin_acme", "acme", "member", f"res{i}", "read")
        for i in range(MAX_BLOCK_TXS + 1)
    ]
    for node in net.nodes.values():
        for tx in txs:
            node.admit(tx, net.tick)
    first = net.nodes[vals[0]]
    while first.chain.height < 1:
        step(net)  # raised nothing
    assert first.chain.tip.transactions == tuple(txs[:MAX_BLOCK_TXS])
    assert list(first.mempool) == [txs[-1].tx_id]  # still queued
    assert step_until_quiescent(net, 100)
    for node in net.nodes.values():
        assert [len(b.transactions) for b in node.chain.blocks] == [0, MAX_BLOCK_TXS, 1]
        assert node.mempool == {}


def _retained() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_retained_memory_per_write_does_not_grow_with_the_message_history(genesis_file, wallets):
    net, vals = _network(genesis_file)
    handle = NodeHandle(net, vals[0], chain_id="testnet")
    txf = TxFactory(wallets)

    def toggle(times):
        # A grant then its revoke: the relations end as they began.
        for _ in range(times):
            for edit in (txf.grant, txf.revoke):
                assert handle.submit(edit("admin_acme", "acme", "auditor", "ledger", "read"))[
                    "committed_height"] is not None

    toggle(2)  # warm up lazily built caches
    pra = handle.node.state.pra
    writes = 40
    tracemalloc.start()
    try:
        # What one write's messages would cost if their fingerprints were kept.
        before = _retained()
        kept = [msg.fingerprint() for msg in _deliver_broadcast(net, VOTE, vals[0], {"height": 0})]
        fingerprint_bytes = (_retained() - before) / len(kept)
        net.queue = []
        spans = []
        for n in (writes, 3 * writes):  # N and then 4N writes in all
            msgs, before = len(net.trace), _retained()
            toggle(n // 2)
            spans.append(((_retained() - before) / n, (len(net.trace) - msgs) / n))
    finally:
        tracemalloc.stop()
    assert handle.node.state.pra == pra
    (first, msgs_per_write), (later, _) = spans
    assert msgs_per_write >= 16
    # Each write keeps its block and index entry, far less than its messages' fingerprints ...
    assert first < msgs_per_write * fingerprint_bytes / 4
    # ... and that share does not rise as the message history grows.
    assert later < 1.25 * first + 256
