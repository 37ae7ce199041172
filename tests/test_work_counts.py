"""Work per committed write on one fixed in-process run, and copies per fold.

Twenty grants, each committed by its own pump, on a 4-validator network with
a fixed seed. The counts are deterministic, so each bound below is the count
measured on this run, and any extra verify or encode on the replication path
fails here without any timing noise.
"""

from collections import Counter

from rolechain import codec, consensus, keys, ledger, state
from rolechain.consensus import Network, NetworkConfig, step_until_quiescent, submit_tx
from rolechain.store import build_genesis_state

from conftest import make_chain

WRITES = 20
# Ed25519 verifies per committed write: admission, whose verified tx is the
# gossip broadcast's one parse, and the proposer's selection, whose fold is
# its block's fold.
VERIFIES_PER_TX = 2
ENCODES_PER_TX = 80  # calls to codec.canonical_dumps
EXECUTES_PER_TX = 1  # calls to state.execute_transaction
# WorldState.clone calls per committed write: the proposer's selection fold.
CLONES_PER_TX = 1
# Block link checks per committed write: one per replica's validation; the
# finalizer extends its chain without checking the link again.
CHECK_LINKS_PER_TX = 4


def _counter(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(state.WorldState, "clone", counting("clone", state.WorldState.clone))
    return counts, counting


def test_work_per_committed_write_stays_within_the_measured_counts(genesis_file, txf, monkeypatch):
    vals = list(genesis_file.validators)
    net = Network(NetworkConfig(validators=vals, rng_seed=3), build_genesis_state(genesis_file))
    txs = [txf.grant("admin_acme", "acme", "member", f"res{i}", "read") for i in range(WRITES)]
    counts, counting = _counter(monkeypatch)
    monkeypatch.setattr(keys, "verify", counting("verify", keys.verify))
    monkeypatch.setattr(codec, "canonical_dumps", counting("encode", codec.canonical_dumps))
    execute = counting("execute", state.execute_transaction)
    for module in (state, consensus, ledger):
        monkeypatch.setattr(module, "execute_transaction", execute)
    check_link = counting("check_link", ledger.check_link)
    for module in (consensus, ledger):
        monkeypatch.setattr(module, "check_link", check_link)
    for tx in txs:
        assert submit_tx(net, tx, via=vals[0])[0]
        assert step_until_quiescent(net, 400)
    assert len(net.tx_heights) == WRITES
    assert all(node.next_height == WRITES + 1 for node in net.nodes.values())
    assert counts["verify"] <= VERIFIES_PER_TX * WRITES
    assert counts["encode"] <= ENCODES_PER_TX * WRITES
    assert counts["execute"] <= EXECUTES_PER_TX * WRITES
    assert counts["check_link"] <= CHECK_LINKS_PER_TX * WRITES
    assert counts["clone"] <= CLONES_PER_TX * WRITES


def test_a_cold_start_replay_copies_once_per_block(genesis_state, wallets, txf, monkeypatch):
    txs = [txf.grant("admin_acme", "acme", "member", f"res{i}", "read") for i in range(12)]
    chain = make_chain(genesis_state, txs, wallets["v0"].address, per_block=4)
    counts, _ = _counter(monkeypatch)
    post = ledger.replay(genesis_state, chain)
    assert len(post.pra) == len(genesis_state.pra) + 12
    assert counts["clone"] <= len(chain) - 1


def test_a_selection_that_executes_nothing_copies_nothing(genesis_file, txf, monkeypatch):
    vals = list(genesis_file.validators)
    net = Network(NetworkConfig(validators=vals, rng_seed=3), build_genesis_state(genesis_file))
    node = net.nodes[vals[0]]
    gap = txf.grant("admin_acme", "acme", "member", "res", "read", nonce=1)
    node.mempool[gap.tx_id] = (gap, net.tick)
    counts, _ = _counter(monkeypatch)
    assert consensus._select_txs(node) == ([], node.state, [])
    assert counts["clone"] == 0 and gap.tx_id in node.mempool
