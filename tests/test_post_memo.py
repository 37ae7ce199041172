"""The execution memo: replicas in one process share one execution of a block.

A block object carries the post-state of its fold as ``_post``: the
proposer's selection fold sets it at the seal, and a replica that executes
a block without one keeps the result there. A replica validating a block
that carries one reuses it, and every replica drops it when it finalizes
the block. These tests pin what that may not change:

* a differential run against the same schedules with every memo dropped
  gives the same chains, roots, report and trace digest, and after either
  run no chain block carries a ``_post``;
* a copy of a memoized block whose body was altered under the same header
  is still refused;
* the audits (``verify_chain``, ``replay``) never read the memo;
* a replica left behind on an old state does not keep later states alive;
* ``build_block`` leaves its input state as it was.
"""

import dataclasses
import gc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolechain import consensus
from rolechain.consensus import (
    COMMIT,
    PROPOSAL,
    VOTE,
    CrashRule,
    DropRule,
    Message,
    Network,
    NetworkConfig,
    PartitionRule,
    quiescent,
    report,
    step,
    step_until_quiescent,
    submit_tx,
)
from rolechain.errors import ReplayDivergence
from rolechain.ledger import build_block, hash_header, new_chain, replay, verify_chain
from rolechain.state import WorldState, state_root
from rolechain.store import build_genesis_state

from conftest import PASSPHRASE, committed_heights
from workloads import WorkloadBuilder

HORIZON = 200
SETTLE_TICKS = 800
N_NODES = 4


def _window(draw, min_len: int, max_len: int) -> tuple[int, int]:
    start = draw(st.integers(0, HORIZON // 2))
    return start, start + draw(st.integers(min_len, max_len))


@st.composite
def fault_schedules(draw):
    partitions = []
    for _ in range(draw(st.integers(0, 2))):
        start, end = _window(draw, 10, 60)
        nodes = draw(st.permutations(range(N_NODES)))
        cut = draw(st.integers(1, N_NODES - 1))
        partitions.append(PartitionRule(start, end, (tuple(nodes[:cut]), tuple(nodes[cut:]))))
    crashes = []
    for _ in range(draw(st.integers(0, 1))):
        start, end = _window(draw, 10, 50)
        forever = draw(st.booleans())
        crashes.append(CrashRule(draw(st.integers(0, N_NODES - 1)), start, None if forever else end))
    drops = []
    for _ in range(draw(st.integers(0, 3))):
        start, end = _window(draw, 5, 40)
        src, dst = draw(st.integers(0, N_NODES - 1)), draw(st.integers(0, N_NODES - 1))
        drops.append(DropRule(src, dst, start, end))
    return partitions, crashes, drops


def _run(genesis_file, vals, schedule, rng_seed, submissions):
    """Run one network to the horizon and then to quiescence; return what it committed."""
    partitions, crashes, drops = schedule
    net = Network(
        NetworkConfig(
            validators=vals, rng_seed=rng_seed,
            partition_rules=partitions, crash_rules=crashes, drop_rules=drops,
        ),
        build_genesis_state(genesis_file),
    )
    for _ in range(HORIZON):
        for tx, via in submissions.get(net.tick, ()):
            submit_tx(net, tx, via=vals[via])
        step(net)
    step_until_quiescent(net, SETTLE_TICKS)
    assert not any("_post" in b.__dict__ for n in net.nodes.values() for b in n.chain.blocks)
    chains = {v: [hash_header(b.header) for b in net.nodes[v].chain.blocks] for v in vals}
    roots = {v: state_root(net.nodes[v].state) for v in vals}
    return chains, roots, report(net)


@settings(max_examples=50, deadline=None)
@given(
    schedule=fault_schedules(),
    rng_seed=st.integers(0, 2**16),
    workload_seed=st.integers(0, 3),
    ticks=st.lists(st.tuples(st.integers(1, HORIZON // 2), st.integers(0, N_NODES - 1)),
                   min_size=10, max_size=10),
)
def test_memo_changes_no_outcome_under_random_fault_schedules(
    genesis_file, wallets, schedule, rng_seed, workload_seed, ticks
):
    vals = list(genesis_file.validators)
    wb = WorkloadBuilder(genesis_file, seed=workload_seed, n_users=6)
    wb.attach_admins({w.address: w for w in wallets.values()}, PASSPHRASE)
    submissions: dict[int, list] = {}
    for tx, (tick, via) in zip(wb.generate(10), ticks):
        submissions.setdefault(tick, []).append((tx, via))

    executes = []
    original, validate = consensus.execute_block, consensus._validate_proposal

    def counted(state, block):
        executes[-1] += 1
        return original(state, block)

    def forgetful(node, block):  # every memo is dropped before it is read
        block.__dict__.pop("_post", None)
        return validate(node, block)

    with mock.patch.object(consensus, "execute_block", counted):
        executes.append(0)
        shipped = _run(genesis_file, vals, schedule, rng_seed, submissions)
        executes.append(0)
        with mock.patch.object(consensus, "_validate_proposal", forgetful):
            missing = _run(genesis_file, vals, schedule, rng_seed, submissions)

    assert shipped == missing
    if max(len(chain) for chain in shipped[0].values()) > 1:
        assert executes[0] < executes[1]


def _deliver(net, node, kind, sender, body):
    net.seq += 1
    consensus._handle(net, node, Message(kind, sender, node.id, body, net.tick, net.seq))


def _votes_from(net, node_id):
    return [m for m in net.queue if m.kind == VOTE and m.sender == node_id]


def _tampered(block, other_tx, part):
    if part == "events":
        return dataclasses.replace(block, events=block.events[:-1])
    return dataclasses.replace(block, transactions=(other_tx,))


@pytest.mark.parametrize("part", ["events", "transactions"])
@pytest.mark.parametrize("kind", [PROPOSAL, COMMIT])
def test_altered_body_under_a_memoized_header_is_refused(genesis_file, txf, kind, part):
    vals = list(genesis_file.validators)
    net = Network(NetworkConfig(validators=vals), build_genesis_state(genesis_file))
    node = net.nodes[vals[0]]
    proposer = net.proposer_for(1, 0)
    # The proposer seals its block from its selection fold and keeps the fold's post-state on it.
    net.nodes[proposer].admit(txf.register("alice", "acme", "member"), net.tick)
    consensus._local_actions(net, net.nodes[proposer])
    (block,) = {m.body["block"] for m in net.queue}
    net.queue = []
    block_hash = hash_header(block.header)
    assert "_post" in block.__dict__
    bad = _tampered(block, txf.register("bob", "acme", "member"), part)
    assert hash_header(bad.header) == block_hash and "_post" not in bad.__dict__

    if kind == PROPOSAL:
        body = {"height": 1, "view": 0, "proposer": proposer, "block": bad}
    else:
        body = {"height": 1, "view": 0, "block_hash": block_hash, "block": bad}
    _deliver(net, node, kind, proposer, body)
    assert node.round.proposals == {}
    assert _votes_from(net, node.id) == []

    # The honest block is then taken from the memo, without executing it.
    with mock.patch.object(consensus, "execute_block", side_effect=AssertionError):
        body["block"] = block
        _deliver(net, node, kind, proposer, body)
    assert node.round.proposals[block_hash][0] == block
    assert node.round.proposals[block_hash][1] is block.__dict__["_post"]


def test_commit_whose_block_fails_validation_counts_but_is_not_adopted(genesis_file, txf):
    vals = list(genesis_file.validators)
    net = Network(NetworkConfig(validators=vals, rng_seed=5), build_genesis_state(genesis_file))
    node = net.nodes[vals[0]]
    block = build_block(
        node.chain.tip.header, [txf.register("alice", "acme", "member")], node.state, vals[1], 1
    )
    block_hash = hash_header(block.header)
    bad = dataclasses.replace(block, events=())  # the header still hashes to block_hash
    body = {"height": 1, "view": 0, "block_hash": block_hash, "block": bad}
    net.seq += 1
    net.queue.append(Message(COMMIT, vals[1], node.id, body, net.tick + 1, net.seq))
    step(net)  # raised nothing
    # The commit counts for the block whose header it carries, but no replica holds it.
    assert node.round.tally == {(COMMIT, 0, block_hash): {vals[1]}}
    assert node.round.proposals == {}
    assert node.chain.height == 0 and node.mempool == {}

    ok, _, tx_id = submit_tx(net, txf.register("bob", "acme", "member"))
    assert ok and step_until_quiescent(net, 100)
    assert all(tx_id in committed_heights(n.chain) for n in net.nodes.values())


@pytest.fixture
def built_chain(genesis_file, txf):
    """A chain committed by a Network in this process, with a wrong memo on each block."""
    vals = list(genesis_file.validators)
    genesis = build_genesis_state(genesis_file)
    net = Network(NetworkConfig(validators=vals, rng_seed=5), genesis)
    for tx in (
        txf.register("alice", "acme", "member"),
        txf.register("bob", "acme", "member"),
        txf.grant("admin_acme", "acme", "member", "ledger", "read"),
    ):
        submit_tx(net, tx)
        assert step_until_quiescent(net, 100)
    chain = net.nodes[vals[0]].chain
    assert chain.height == 3
    # Finalizing dropped every memo; plant a wrong post-state on every
    # block, so an audit that read it would fail.
    for block in chain.blocks[1:]:
        block.__dict__["_post"] = genesis
    return genesis, chain


def _with_block(chain, height, block):
    return dataclasses.replace(
        chain, blocks=chain.blocks[:height] + (block,) + chain.blocks[height + 1:]
    )


@pytest.mark.parametrize("height,part", [(1, "events"), (2, "transactions")])
def test_audits_name_a_tampered_block_without_reading_the_memo(built_chain, txf, height, part):
    genesis, chain = built_chain
    bad = _tampered(chain.blocks[height], txf.register("carol", "acme", "member"), part)
    tampered = _with_block(chain, height, bad)

    assert verify_chain(chain, genesis) is None
    assert state_root(replay(genesis, chain)) == chain.tip.header.state_root
    failure = verify_chain(tampered, genesis)
    assert failure is not None and failure.height == height
    with pytest.raises(ReplayDivergence) as exc:
        replay(genesis, tampered)
    assert exc.value.height == height


def _live_states() -> int:
    gc.collect()
    return sum(isinstance(o, WorldState) for o in gc.get_objects())


def test_replica_crashed_forever_keeps_no_later_state_alive(genesis_file, txf):
    vals = list(genesis_file.validators)
    net = Network(
        NetworkConfig(validators=vals, rng_seed=3, crash_rules=[CrashRule(node=3, from_tick=0)]),
        build_genesis_state(genesis_file),
    )
    n = 5

    def commit(count):
        for _ in range(count):
            height = net.nodes[vals[0]].chain.height
            submit_tx(net, txf.grant("admin_acme", "acme", "member", f"r{height}", "read"))
            assert step_until_quiescent(net, 100)
            assert net.nodes[vals[0]].chain.height == height + 1

    commit(n)
    after_n = _live_states()
    commit(3 * n)
    assert quiescent(net)
    assert net.nodes[vals[3]].chain.height == 0
    assert _live_states() == after_n
    # Finalizing dropped the memo from every block it finalized.
    assert not any("_post" in b.__dict__ for n in net.nodes.values() for b in n.chain.blocks)


def test_build_block_leaves_its_input_state_unchanged(genesis_file, txf):
    state = build_genesis_state(genesis_file)
    genesis = new_chain(state)
    before = dict(vars(state))
    block = build_block(
        genesis.tip.header, [txf.register("alice", "acme", "member")], state, "00" * 20, 1
    )
    assert block.header.height == 1 and len(block.events) == 1
    assert vars(state) == before
    assert state == build_genesis_state(genesis_file)


def test_replica_that_synced_shares_the_post_state_memo_again(genesis_file, txf):
    vals = list(genesis_file.validators)
    crash_until = 40
    net = Network(
        NetworkConfig(
            validators=vals, rng_seed=3,
            crash_rules=[CrashRule(node=3, from_tick=0, to_tick=crash_until)],
        ),
        build_genesis_state(genesis_file),
    )
    synced = []
    original_adopt = consensus._adopt_block

    def adopt(network, node, block):
        synced.append(node.id)
        return original_adopt(network, node, block)

    def commit(count):
        for _ in range(count):
            height = net.nodes[vals[0]].chain.height
            submit_tx(net, txf.grant("admin_acme", "acme", "member", f"r{height}", "read"))
            assert step_until_quiescent(net, 100)
            assert net.nodes[vals[0]].chain.height == height + 1

    with mock.patch.object(consensus, "_adopt_block", adopt):
        commit(3)
        while net.tick <= crash_until:
            step(net)
        assert step_until_quiescent(net, 200)
    assert set(synced) == {vals[3]}
    assert len({n.chain.height for n in net.nodes.values()}) == 1

    executes = []
    original_execute = consensus.execute_block

    def counted(state, block):
        executes.append(block.header.height)
        return original_execute(state, block)

    with mock.patch.object(consensus, "execute_block", counted):
        commit(8)
    assert executes == []
    assert len({id(n.state) for n in net.nodes.values()}) == 1
