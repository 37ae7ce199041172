import dataclasses

import pytest

from rolechain import codec
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
    _handle,
    quiescent,
    run_until_quiescent,
    step,
    step_until_quiescent,
    submit_tx,
)
from rolechain.errors import API_ERROR_CODES, SimTimeout
from rolechain.ledger import build_block, hash_header
from rolechain.state import state_root
from rolechain.store import build_genesis_state

# Measured once on the reference run (seed 7, N=4, fault-free): the commit
# lands at tick 7. Pinned with headroom for other seeds' latency draws.
FAULT_FREE_COMMIT_BOUND = 12


@pytest.fixture
def vals(wallets):
    return [wallets[f"v{i}"].address for i in range(4)]


def _network(vals, genesis_state, **kwargs):
    return Network(NetworkConfig(validators=vals, **kwargs), genesis_state)


def _register_tx(txf):
    return txf.register("alice", "acme", "member")


def test_single_tx_commits_within_pinned_bound(vals, genesis_state, txf):
    net = _network(vals, genesis_state, rng_seed=7)
    ok, reason, tx_id = submit_tx(net, _register_tx(txf))
    assert ok and tx_id
    report = run_until_quiescent(net, 100)
    assert report["tick"] <= FAULT_FREE_COMMIT_BOUND
    roots = {info["state_root"] for info in report["nodes"].values()}
    heights = {info["height"] for info in report["nodes"].values()}
    assert roots == {state_root(net.nodes[vals[0]].state)} and heights == {1}
    assert [e["kind"] for e in report["committed_events"]] == ["UserRegistered"]


def test_gossip_reaches_every_up_mempool(vals, genesis_state, txf):
    net = _network(vals, genesis_state, rng_seed=1)
    tx = _register_tx(txf)
    submit_tx(net, tx, via=vals[2])
    step(net)
    step(net)
    for v in vals:
        assert tx.tx_id in net.nodes[v].mempool


def test_bad_signature_rejected(vals, genesis_state, txf):
    net = _network(vals, genesis_state)
    tx = _register_tx(txf)
    forged = dataclasses.replace(tx, signature="00" * 64)
    ok, reason, tx_id = submit_tx(net, forged)
    assert not ok and reason == "BadSignature" and tx_id is None


def test_submit_with_every_validator_crashed_is_unavailable(vals, genesis_state, txf):
    net = _network(vals, genesis_state, crash_rules=[CrashRule(i, 0) for i in range(4)])
    ok, reason, tx_id = submit_tx(net, _register_tx(txf))
    assert not ok and reason == "Unavailable" and tx_id is None
    assert reason in API_ERROR_CODES


def test_invalid_by_state_tx_is_dropped_not_stuck(vals, genesis_state, txf):
    net = _network(vals, genesis_state, rng_seed=2)
    submit_tx(net, _register_tx(txf))
    duplicate = txf.register("alice", "acme", "member", nonce=1)
    submit_tx(net, duplicate)
    report = run_until_quiescent(net, 200)
    assert report["quiescent"]
    assert {i["height"] for i in report["nodes"].values()} == {1}


def test_chain_advances_with_one_crashed_validator(vals, genesis_state, txf):
    net = _network(
        vals, genesis_state, rng_seed=4, crash_rules=[CrashRule(node=1, from_tick=0)]
    )
    submit_tx(net, _register_tx(txf))
    report = run_until_quiescent(net, 300)
    heights = {v: i["height"] for v, i in report["nodes"].items()}
    assert heights[vals[1]] == 0  # crashed forever
    assert all(heights[v] == 1 for v in vals if v != vals[1])


def test_any_single_crash_including_each_proposer_still_commits(vals, genesis_state, wallets):
    from conftest import TxFactory

    for crashed in range(4):
        txf = TxFactory(wallets)
        net = _network(
            vals, genesis_state, rng_seed=5,
            crash_rules=[CrashRule(node=crashed, from_tick=0)],
        )
        submit_tx(net, txf.register("bob", "acme", "member"),
                  via=vals[(crashed + 1) % 4])
        report = run_until_quiescent(net, 300)
        up_heights = {v: i["height"] for v, i in report["nodes"].items() if v != vals[crashed]}
        assert set(up_heights.values()) == {1}, f"crashed={crashed}"


def test_symmetric_partition_halts_commits(vals, genesis_state, txf):
    net = _network(
        vals, genesis_state, rng_seed=3,
        partition_rules=[PartitionRule(from_tick=0, to_tick=10_000, groups=((0, 1), (2, 3)))],
    )
    tx = _register_tx(txf)
    submit_tx(net, tx, via=vals[0])
    with pytest.raises(SimTimeout) as exc:
        run_until_quiescent(net, 200)
    assert all(info["height"] == 0 for info in exc.value.report["nodes"].values())
    # the transaction reached only the submitter's side of the partition
    assert tx.tx_id in net.nodes[vals[0]].mempool
    assert tx.tx_id in net.nodes[vals[1]].mempool
    assert tx.tx_id not in net.nodes[vals[2]].mempool
    assert tx.tx_id not in net.nodes[vals[3]].mempool


def test_partition_heals_and_nodes_converge(vals, genesis_state, txf):
    net = _network(
        vals, genesis_state, rng_seed=3,
        partition_rules=[PartitionRule(from_tick=0, to_tick=40, groups=((0, 1), (2, 3)))],
    )
    submit_tx(net, _register_tx(txf), via=vals[0])
    report = run_until_quiescent(net, 400)
    assert report["quiescent"]
    assert {i["height"] for i in report["nodes"].values()} == {1}
    assert len({i["state_root"] for i in report["nodes"].values()}) == 1


def test_laggard_catches_up_after_commits_happened_elsewhere(vals, genesis_state, txf):
    # node 3 is cut off while the rest commit; on heal it must block-sync
    net = _network(
        vals, genesis_state, rng_seed=8,
        partition_rules=[PartitionRule(from_tick=0, to_tick=60, groups=((0, 1, 2), (3,)))],
    )
    submit_tx(net, _register_tx(txf), via=vals[0])
    while net.tick < 60:
        step(net)
    assert net.nodes[vals[0]].next_height - 1 == 1
    assert net.nodes[vals[3]].next_height - 1 == 0
    report = run_until_quiescent(net, 300)
    assert report["nodes"][vals[3]]["height"] == 1
    assert len({i["state_root"] for i in report["nodes"].values()}) == 1


def test_crashed_node_revives_and_syncs(vals, genesis_state, txf):
    net = _network(
        vals, genesis_state, rng_seed=9,
        crash_rules=[CrashRule(node=2, from_tick=0, to_tick=50)],
    )
    submit_tx(net, _register_tx(txf))
    report = run_until_quiescent(net, 300)
    assert report["nodes"][vals[2]]["height"] == 1
    assert len({i["state_root"] for i in report["nodes"].values()}) == 1


def test_a_tx_counts_as_on_chain_only_for_replicas_that_reached_its_height(
    vals, genesis_state, txf
):
    net = _network(vals, genesis_state, rng_seed=9, crash_rules=[CrashRule(node=3, from_tick=0)])
    tx = _register_tx(txf)
    submit_tx(net, tx)
    step_until_quiescent(net, 300)
    ahead, behind = net.nodes[vals[0]], net.nodes[vals[3]]
    assert ahead.next_height == 2 and behind.next_height == 1
    for node in (ahead, behind):
        node.admit(tx, net.tick)
    assert tx.tx_id not in ahead.mempool  # committed on its chain
    assert tx.tx_id in behind.mempool  # not yet on the crashed replica's chain


def test_drop_rule_blocks_directed_link(vals, genesis_state, txf):
    net = _network(
        vals, genesis_state, rng_seed=10,
        drop_rules=[DropRule(src=0, dst=3, from_tick=0, to_tick=4)],
    )
    tx = _register_tx(txf)
    submit_tx(net, tx, via=vals[0])
    step(net)
    step(net)
    step(net)
    assert tx.tx_id in net.nodes[vals[1]].mempool
    assert tx.tx_id not in net.nodes[vals[3]].mempool


def test_consensus_safety_no_conflicting_commits_each_tick(
    vals, genesis_state, wallets, monkeypatch
):
    """Byte-identical committed blocks at every height, checked at every tick.

    No replica commit-votes two blocks in one (height, view) either.
    """
    from conftest import TxFactory, watch_commit_votes

    commit_votes = watch_commit_votes(monkeypatch)
    txf = TxFactory(wallets)
    net = _network(
        vals, genesis_state, rng_seed=12,
        partition_rules=[PartitionRule(from_tick=10, to_tick=35, groups=((0, 2), (1, 3)))],
        crash_rules=[CrashRule(node=0, from_tick=50, to_tick=70)],
    )
    txs = [
        txf.register("alice", "acme", "member"),
        txf.register("bob", "acme", "contractor"),
        txf.grant("admin_acme", "acme", "member", "ledger", "read"),
        txf.update("admin_acme", "alice", "acme", "member", "auditor"),
        txf.revoke("admin_acme", "acme", "member", "ledger", "read"),
    ]
    submit_at = {2: txs[0], 12: txs[1], 20: txs[2], 55: txs[3], 80: txs[4]}
    for _ in range(220):
        if net.tick in submit_at:
            submit_tx(net, submit_at[net.tick], via=vals[net.tick % 4])
        step(net)
        by_height: dict[int, set[bytes]] = {}
        for v in vals:
            for block in net.nodes[v].chain.blocks[1:]:
                by_height.setdefault(block.header.height, set()).add(
                    codec.canonical_bytes(block.to_dict())
                )
        for height, variants in by_height.items():
            assert len(variants) == 1, f"conflicting commits at height {height}"
    report = run_until_quiescent(net, 300)
    assert commit_votes  # the watch saw the run's commit votes
    assert len({i["height"] for i in report["nodes"].values()}) == 1
    assert len({i["state_root"] for i in report["nodes"].values()}) == 1
    assert sorted(e["kind"] for e in report["committed_events"]) == sorted([
        "UserRegistered", "UserRegistered", "PermissionGranted",
        "UserRoleUpdated", "PermissionRevoked",
    ])


def test_commit_whose_block_is_not_the_claimed_one_is_dropped(vals, genesis_file, txf):
    """A commit quorum for one block hash must not finalize a different block."""
    from rolechain.consensus import COMMIT, Message, _handle
    from rolechain.ledger import build_block, hash_header
    from rolechain.store import build_genesis_state

    net = _network(vals, build_genesis_state(genesis_file))
    node = net.nodes[vals[0]]
    tip = node.chain.tip.header
    honest = build_block(tip, [txf.register("alice", "acme", "member")], node.state, vals[1], 1)
    other = build_block(tip, [txf.register("bob", "acme", "member")], node.state, vals[1], 1)
    claimed = hash_header(honest.header)

    def commit_from_each_peer(block):
        for seq, sender in enumerate(vals[1:]):
            body = {"height": 1, "view": 0, "block_hash": claimed, "block": block}
            _handle(net, node, Message(COMMIT, sender, node.id, body, net.tick, seq))

    commit_from_each_peer(other)
    assert node.chain.height == 0
    assert node.round.proposals == {} and node.round.tally == {}

    commit_from_each_peer(honest)
    assert node.chain.height == 1 and node.chain.tip == honest


class _Replica:
    """Replica 0 of a fresh network, fed hand-made height-1 messages; two blocks it can hold."""

    def __init__(self, vals, genesis_file, txf):
        self.net = _network(vals, build_genesis_state(genesis_file))
        self.node = self.net.nodes[vals[0]]
        self.vals = vals
        tip, state = self.node.chain.tip.header, self.node.state
        self.a = build_block(tip, [txf.register("alice", "acme", "member")], state, vals[1], 1)
        self.b = build_block(tip, [txf.register("bob", "acme", "member")], state, vals[2], 1)

    def deliver(self, kind, sender, body):
        self.net.seq += 1
        _handle(self.net, self.node, Message(
            kind, sender, self.node.id, {"height": 1, **body}, self.net.tick, self.net.seq,
        ))

    def propose(self, block, view):
        proposer = self.net.proposer_for(1, view)
        self.deliver(PROPOSAL, proposer, {"view": view, "proposer": proposer, "block": block})

    def quorum(self, kind, block, view):
        body = {"view": view, "block_hash": hash_header(block.header)}
        if kind == COMMIT:
            body["block"] = block
        for sender in self.vals[1:]:
            self.deliver(kind, sender, body)

    def sent(self):
        """(kind, view, block hash) of each vote and commit vote the replica sent, in order."""
        return [
            (m.kind, m.body["view"], m.body["block_hash"])
            for m in self.net.queue
            if m.sender == m.recipient == self.node.id and m.kind in (VOTE, COMMIT)
        ]


def test_each_rule_acts_on_the_replica_current_view_only(vals, genesis_file, txf):
    r = _Replica(vals, genesis_file, txf)
    a, b = hash_header(r.a.header), hash_header(r.b.header)
    r.propose(r.a, 0)
    r.propose(r.b, 1)  # round skip: the replica moves to view 1
    assert r.node.round.view == 1
    r.quorum(VOTE, r.a, 0)  # a vote quorum in a view it has left
    r.quorum(COMMIT, r.a, 0)  # and a commit quorum there
    assert r.sent() == [(VOTE, 0, a), (VOTE, 1, b)] and r.node.chain.height == 0
    r.quorum(VOTE, r.b, 1)
    assert r.sent()[-1] == (COMMIT, 1, b) and r.node.round.lock == b
    r.quorum(COMMIT, r.b, 1)
    assert r.node.chain.height == 1 and r.node.chain.tip == r.b


def test_a_locked_replica_votes_only_for_its_lock(vals, genesis_file, txf):
    r = _Replica(vals, genesis_file, txf)
    a, b = hash_header(r.a.header), hash_header(r.b.header)
    r.propose(r.a, 0)
    r.quorum(VOTE, r.a, 0)
    assert r.node.round.lock == a
    r.propose(r.b, 1)
    r.propose(r.a, 2)
    assert r.sent() == [(VOTE, 0, a), (COMMIT, 0, a), (VOTE, 2, a)]
    assert r.node.round.view == 2 and b in r.node.round.proposals


def test_determinism_identical_trace_and_report(vals, genesis_state, wallets):
    from conftest import TxFactory

    def run():
        txf = TxFactory(wallets)
        net = _network(
            vals, genesis_state, rng_seed=21,
            partition_rules=[PartitionRule(from_tick=5, to_tick=25, groups=((0, 1), (2, 3)))],
        )
        submit_tx(net, txf.register("carol", "globex", "member"), via=vals[1])
        return run_until_quiescent(net, 400)

    r1, r2 = run(), run()
    assert r1["trace_digest"] == r2["trace_digest"]
    assert r1 == r2


# Reports and trace digests of the runs below; any change to either is a
# regression.
PINNED_REPORTS = {
    "clean": (11, "54a3685d475545bea644da6df21072f6a4ae7ef132a28180c8a1bd97fe6d6939",
              "234d1bca3142fb770450d0a59d690ab3252b70bb29c106b41d4eccff91f95d12"),
    "faults": (50, "0c3e363662e7c3de44868860d02f31e679db10703846cec5be60702e6fc27546",
               "5e1adceb4d6f91aa5380943a0c65bc91c768e9ab075f1ed2b615c209dc7fa170"),
}


@pytest.mark.parametrize("schedule", sorted(PINNED_REPORTS))
def test_run_until_quiescent_report_is_pinned(vals, genesis_state, wallets, schedule):
    from conftest import TxFactory

    faults = {}
    if schedule == "faults":
        faults = {
            "partition_rules": [PartitionRule(from_tick=5, to_tick=25, groups=((0, 1), (2, 3)))],
            "crash_rules": [CrashRule(node=3, from_tick=30, to_tick=45)],
        }
    txf = TxFactory(wallets)
    net = _network(vals, genesis_state, rng_seed=21, **faults)
    submit_tx(net, txf.register("carol", "globex", "member"), via=vals[1])
    submit_tx(net, txf.register("alice", "acme", "member"), via=vals[2])
    submit_tx(net, txf.grant("admin_acme", "acme", "member", "ledger", "read"), via=vals[0])
    report = run_until_quiescent(net, 400)
    tick, trace_digest, report_digest = PINNED_REPORTS[schedule]
    assert report["tick"] == tick and report["quiescent"]
    assert report["trace_digest"] == trace_digest
    assert codec.digest(report) == report_digest


def _write_stream(txf):
    """A fixed stream of every payload kind, with the entry node of each write."""
    return [
        (txf.register("alice", "acme", "member"), 0),
        (txf.register("bob", "acme", "contractor"), 1),
        (txf.grant("admin_acme", "acme", "member", "ledger", "read"), 2),
        (txf.register("carol", "globex", "member"), 3),
        (txf.update("admin_acme", "alice", "acme", "member", "auditor"), 0),
        (txf.grant("admin_globex", "globex", "member", "api", "exec"), 1),
        (txf.revoke("admin_acme", "acme", "member", "ledger", "read"), 2),
        (txf.register("dave", "acme", "member"), 3),
    ]


@pytest.mark.parametrize("schedule", ["clean", "faults"])
def test_a_network_without_the_trace_digest_commits_the_same_chain(
    vals, genesis_state, wallets, monkeypatch, schedule
):
    """Differential: only the trace digest differs between the two networks, and it is refused."""
    from conftest import TxFactory
    from rolechain.consensus import Message
    from rolechain.ledger import hash_header

    faults = {}
    if schedule == "faults":
        faults = {
            "partition_rules": [PartitionRule(from_tick=5, to_tick=25, groups=((0, 1), (2, 3)))],
            "crash_rules": [CrashRule(node=3, from_tick=30, to_tick=45)],
        }

    def run(trace_digest):
        net = Network(
            NetworkConfig(validators=vals, rng_seed=21, **faults), genesis_state,
            trace_digest=trace_digest,
        )
        for tx, entry in _write_stream(TxFactory(wallets)):
            assert submit_tx(net, tx, via=vals[entry])[0]
            step(net)
        assert step_until_quiescent(net, 400)
        nodes = [net.nodes[v] for v in vals]
        return net, [
            (n.next_height, state_root(n.state), hash_header(n.chain.tip.header)) for n in nodes
        ]

    def refused(msg):
        raise AssertionError("an untraced network took a message fingerprint")

    traced, kept = run(True)
    with monkeypatch.context() as patch:
        patch.setattr(Message, "fingerprint", refused)
        untraced, counted = run(False)
    assert counted == kept
    writes = len(_write_stream(TxFactory(wallets)))
    assert len(untraced.tx_heights) == len(traced.tx_heights) == writes
    assert len(untraced.trace) == len(traced.trace) > 0
    with pytest.raises(ValueError, match="only a count"):
        codec.digest(untraced.trace)
    with pytest.raises(ValueError, match="only a count"):
        run_until_quiescent(untraced, 1)  # its report would need the digest
    assert codec.digest(traced.trace) == run_until_quiescent(traced, 1)["trace_digest"]


def test_step_until_quiescent_says_whether_it_got_there(vals, genesis_state, txf):
    net = _network(vals, genesis_state, rng_seed=7)
    assert step_until_quiescent(net, 0)  # idle: nothing to do
    submit_tx(net, _register_tx(txf))
    assert not step_until_quiescent(net, 1)
    assert step_until_quiescent(net, 100)
    assert net.nodes[vals[0]].next_height == 2


def test_node_invariants_hold_after_faulty_run(vals, genesis_state, txf):
    """Every replica's chain verifies and its state equals the replay of it."""
    from rolechain.ledger import verify_chain
    from rolechain.ledger import replay

    net = _network(
        vals, genesis_state, rng_seed=44,
        partition_rules=[PartitionRule(from_tick=0, to_tick=30, groups=((0, 3), (1, 2)))],
        crash_rules=[CrashRule(node=2, from_tick=40, to_tick=55)],
    )
    submit_tx(net, _register_tx(txf), via=vals[0])
    submit_tx(net, txf.register("bob", "globex", "member"), via=vals[3])
    run_until_quiescent(net, 500)
    for v in vals:
        node = net.nodes[v]
        assert verify_chain(node.chain, genesis_state) is None
        assert state_root(replay(genesis_state, node.chain)) == state_root(node.state)


def test_run_until_quiescent_zero_budget(vals, genesis_state):
    net = _network(vals, genesis_state)
    with pytest.raises(SimTimeout) as exc:
        run_until_quiescent(net, 0)
    assert exc.value.report["nodes"]


def test_idle_network_is_quiescent(vals, genesis_state):
    net = _network(vals, genesis_state)
    assert quiescent(net)
    report = run_until_quiescent(net, 10)
    assert report["tick"] == 0


def test_single_validator_network(genesis_state, wallets, txf):
    net = Network(NetworkConfig(validators=[wallets["v0"].address]), genesis_state)
    submit_tx(net, txf.register("dave", "globex", "member"))
    report = run_until_quiescent(net, 100)
    assert report["nodes"][wallets["v0"].address]["height"] == 1
