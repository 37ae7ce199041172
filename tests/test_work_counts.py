"""Work per committed write on fixed in-process runs, and copies per fold.

Twenty grants, each committed by its own pump, on a 4-validator network with
a fixed seed: once on a traced network, as the simulator runs, and once
through a node service's ``NodeHandle``. The counts are deterministic, so
each bound below is the count measured on its run, and any extra verify or
encode on the replication path fails here without any timing noise.
"""

import sys
from collections import Counter

from rolechain import codec, consensus, keys, ledger, payloads, state
from rolechain.api import ServiceConfig, build_node_service
from rolechain.consensus import Network, NetworkConfig, step_until_quiescent, submit_tx
from rolechain.store import build_genesis_state, save_genesis
from rolechain.wallet import save_wallet

from conftest import make_chain

WRITES = 20
# Ed25519 verifies per committed write: admission, whose verified tx is the
# one the gossip carries, and the proposer's selection, whose fold is its
# block's fold.
VERIFIES_PER_TX = 2
# Calls to codec.canonical_dumps: 1,143 on this run, 1,002 of them for the trace
# digest (one per delivered message, 801, and one body digest per broadcast).
ENCODES_PER_TX = 57.15
# Calls to codec.digest made by SignedTransaction.tx_id: each tx object hashes
# its id once, and every replica holds the objects its sender sent.
TX_ID_DIGESTS_PER_TX = 1
# Calls to codec.digest made by ledger.hash_header: each header object hashes
# once, so one per block plus the one genesis header the replicas share (21 on
# either run).
HEADER_HASHES_PER_TX = 1.05
# Digests taken by ledger.tx_root (a codec.sha256_hex call): the proposer's
# seal, which keeps the root on the one block every replica's check_link reads.
TX_ROOTS_PER_TX = 1
EXECUTES_PER_TX = 1  # calls to state.execute_transaction
# WorldState.clone calls per committed write: the proposer's selection fold.
CLONES_PER_TX = 1
# Block link checks per committed write: one per replica's validation; the
# finalizer extends its chain without checking the link again.
CHECK_LINKS_PER_TX = 4
# Encodes per NodeHandle.submit on a node service, whose network keeps no trace
# digest: 161 on this run, the store line's one included.
ENCODES_PER_NODE_WRITE = 8.05
# Block.to_dict calls per NodeHandle.submit: the store line's; message bodies
# carry the block itself and an untraced network digests none of them.
BLOCK_DICTS_PER_NODE_WRITE = 1


def _counter(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(state.WorldState, "clone", counting("clone", state.WorldState.clone))
    return counts, counting


def _count_encodes(monkeypatch, counts):
    """Count canonical encodes, and the digests that ``tx_id``, ``hash_header`` and ``tx_root`` take.

    ``tx_root`` hashes the bytes it joins, so its digest is a ``codec.sha256_hex`` call.
    """
    encode, digest, sha256_hex = codec.canonical_dumps, codec.digest, codec.sha256_hex
    callers = {
        payloads.SignedTransaction.tx_id.fget.__code__: "tx_id digest",
        ledger.hash_header.__code__: "header hash",
        ledger.tx_root.__code__: "tx root",
    }

    def counted_encode(obj):
        counts["encode"] += 1
        return encode(obj)

    def counting(fn):
        def counted_digest(obj):
            caller = callers.get(sys._getframe(1).f_code)
            if caller is not None:
                counts[caller] += 1
            return fn(obj)
        return counted_digest

    def counted_block_dict(block):
        counts["Block.to_dict"] += 1
        return block_dict(block)

    block_dict = ledger.Block.to_dict
    monkeypatch.setattr(codec, "canonical_dumps", counted_encode)
    monkeypatch.setattr(codec, "digest", counting(digest))
    monkeypatch.setattr(codec, "sha256_hex", counting(sha256_hex))
    monkeypatch.setattr(ledger.Block, "to_dict", counted_block_dict)


def test_work_per_committed_write_stays_within_the_measured_counts(genesis_file, txf, monkeypatch):
    vals = list(genesis_file.validators)
    net = Network(NetworkConfig(validators=vals, rng_seed=3), build_genesis_state(genesis_file))
    txs = [txf.grant("admin_acme", "acme", "member", f"res{i}", "read") for i in range(WRITES)]
    counts, counting = _counter(monkeypatch)
    monkeypatch.setattr(keys, "verify", counting("verify", keys.verify))
    _count_encodes(monkeypatch, counts)
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
    assert counts["tx_id digest"] <= TX_ID_DIGESTS_PER_TX * WRITES
    assert counts["header hash"] <= HEADER_HASHES_PER_TX * WRITES
    assert counts["tx root"] <= TX_ROOTS_PER_TX * WRITES
    assert counts["execute"] <= EXECUTES_PER_TX * WRITES
    assert counts["check_link"] <= CHECK_LINKS_PER_TX * WRITES
    assert counts["clone"] <= CLONES_PER_TX * WRITES


def test_encodes_per_node_write_stay_within_the_measured_count(
    genesis_file, wallets, txf, tmp_path, monkeypatch
):
    """The network is built by ``build_node_service``, so it keeps only a message count."""
    save_genesis(genesis_file, tmp_path / "genesis.json")
    save_wallet(wallets["v0"], tmp_path / "node_key.json")
    server = build_node_service(ServiceConfig(
        listen="127.0.0.1:0",
        data_dir=str(tmp_path / "node0"),
        genesis=str(tmp_path / "genesis.json"),
        node_key=str(tmp_path / "node_key.json"),
    ))
    try:
        handle = server.handle
        txs = [txf.grant("admin_acme", "acme", "member", f"res{i}", "read") for i in range(WRITES)]
        counts = Counter()
        _count_encodes(monkeypatch, counts)
        for tx in txs:
            assert handle.submit(tx)["committed_height"] is not None
    finally:
        server.stop()
    assert handle.store.height == WRITES and len(handle.network.trace) > 0
    assert counts["encode"] <= ENCODES_PER_NODE_WRITE * WRITES
    assert counts["tx_id digest"] <= TX_ID_DIGESTS_PER_TX * WRITES
    assert counts["header hash"] <= HEADER_HASHES_PER_TX * WRITES
    assert counts["tx root"] <= TX_ROOTS_PER_TX * WRITES
    assert counts["Block.to_dict"] <= BLOCK_DICTS_PER_NODE_WRITE * WRITES


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
