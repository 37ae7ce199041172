"""Work per committed write on one fixed in-process run.

Twenty grants, each committed by its own pump, on a 4-validator network with
a fixed seed. The counts are deterministic, so each bound below is the count
measured on this run, and any extra verify or encode on the replication path
fails here without any timing noise.
"""

from collections import Counter

from rolechain import codec, consensus, keys, ledger, state
from rolechain.consensus import Network, NetworkConfig, step_until_quiescent, submit_tx
from rolechain.store import build_genesis_state

WRITES = 20
# Ed25519 verifies per committed write: admission, the gossip broadcast's one
# parse, and the proposer's selection, whose fold is its block's fold.
VERIFIES_PER_TX = 3
ENCODES_PER_TX = 81  # calls to codec.canonical_dumps
APPLIES_PER_TX = 1  # calls to state.apply_transaction
# Block link checks per committed write: one per replica's validation; the
# finalizer extends its chain without checking the link again.
CHECK_LINKS_PER_TX = 4


def test_work_per_committed_write_stays_within_the_measured_counts(genesis_file, txf, monkeypatch):
    vals = list(genesis_file.validators)
    net = Network(NetworkConfig(validators=vals, rng_seed=3), build_genesis_state(genesis_file))
    txs = [txf.grant("admin_acme", "acme", "member", f"res{i}", "read") for i in range(WRITES)]
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(keys, "verify", counting("verify", keys.verify))
    monkeypatch.setattr(codec, "canonical_dumps", counting("encode", codec.canonical_dumps))
    apply = counting("apply", state.apply_transaction)
    for module in (state, consensus, ledger):
        monkeypatch.setattr(module, "apply_transaction", apply)
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
    assert counts["apply"] <= APPLIES_PER_TX * WRITES
    assert counts["check_link"] <= CHECK_LINKS_PER_TX * WRITES
