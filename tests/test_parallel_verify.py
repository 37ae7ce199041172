"""The bulk envelope check of a replay against the per-tx check it stands in for.

``wallet.verify_envelopes`` checks contiguous shares of a chain's txs in
forked children; ``ledger.replay`` marks each block whose txs all passed, and
only that block's fold skips ``verify_envelope``. Each test here forces two
usable CPUs, so a chain of two shares forks one child on any machine, and
compares the result with the serial path: the same marks, the same verdict at
the same height with the same message, and no child left behind.
"""

import dataclasses
import os
import random
import threading

import pytest

from rolechain import ledger, wallet
from rolechain.state import state_root

from conftest import TxFactory, make_chain

N_TXS = 2 * wallet.MIN_SHARE + 88  # two shares: the parent's, txs 0-299, and one child's
PER_BLOCK = 20
HALF = N_TXS // 2


@pytest.fixture(scope="module")
def big_chain(genesis_state, wallets):
    txf = TxFactory(wallets)
    txs = [txf.grant("admin_acme", "acme", "member", f"res{i}", "read") for i in range(N_TXS)]
    return make_chain(genesis_state, txs, wallets["v0"].address, per_block=PER_BLOCK)


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs; the pids of the children forked while the test runs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def _with_another_thread(fn):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        return fn()
    finally:
        stop.set()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _flip_byte(value: str, rng: random.Random) -> str:
    raw = bytearray.fromhex(value)
    raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
    return raw.hex()


def _random_txs(wallets, rng: random.Random, n: int):
    txf = TxFactory(wallets)
    names = sorted(wallets)
    txs = []
    for i in range(n):
        name = rng.choice(names)
        kind = rng.randrange(3)
        if kind == 0:
            txs.append(txf.register(name, rng.choice(["acme", "globex"]), "member", nonce=rng.randrange(9)))
        elif kind == 1:
            txs.append(txf.grant(name, "acme", "member", f"r{i}", "read", nonce=rng.randrange(9)))
        else:
            txs.append(txf.revoke(name, "globex", "analyst", f"r{i}", "exec", nonce=rng.randrange(9)))
    return txs


@pytest.mark.parametrize("trial", range(4))
def test_the_bulk_check_marks_what_the_per_tx_check_passes(wallets, forks, trial):
    rng = random.Random(trial)
    txs = _random_txs(wallets, rng, N_TXS)
    at, field = rng.randrange(N_TXS), ("signature", "public_key", "sender")[trial % 3]
    txs[at] = dataclasses.replace(txs[at], **{field: _flip_byte(getattr(txs[at], field), rng)})
    serial = bytes(map(wallet.verify_envelope, txs))
    assert serial == bytes(i != at for i in range(N_TXS))
    assert wallet.verify_envelopes(txs) == serial and len(forks) == 1
    assert _with_another_thread(lambda: wallet.verify_envelopes(txs)) == serial and len(forks) == 1


def test_a_chain_too_small_to_pay_for_a_fork_is_checked_serially(wallets, forks):
    txs = _random_txs(wallets, random.Random(5), 2 * wallet.MIN_SHARE - 1)
    assert wallet.verify_envelopes(txs) == bytes(map(wallet.verify_envelope, txs))
    assert forks == []


def test_a_forked_replay_verifies_each_envelope_once(big_chain, genesis_state, forks, monkeypatch):
    """The parent checks its half; no fold checks again, and every block is marked."""
    calls = []
    verify = wallet.verify_envelope
    monkeypatch.setattr(wallet, "verify_envelope", lambda tx: calls.append(1) or verify(tx))
    post = ledger.replay(genesis_state, big_chain)
    assert state_root(post) == big_chain.tip.header.state_root
    assert len(forks) == 1 and len(calls) == HALF
    assert all(b.__dict__.get("_signed") for b in big_chain.blocks[1:])
    calls.clear()
    _with_another_thread(lambda: ledger.replay(genesis_state, big_chain))
    assert len(forks) == 1 and len(calls) == N_TXS


@pytest.mark.parametrize("failure", ["short reply", "failed child"])
def test_a_share_whose_child_fails_folds_with_every_check(big_chain, genesis_state, forks, monkeypatch,
                                                          failure):
    parent, verify, real_exit = os.getpid(), wallet.verify_envelope, os._exit
    if failure == "short reply":  # the child leaves cleanly before a byte of its reply
        monkeypatch.setattr(wallet, "verify_envelope",
                            lambda tx: verify(tx) if os.getpid() == parent else real_exit(0))
    else:  # the child writes its whole reply, then exits 3
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
    post = ledger.replay(genesis_state, big_chain)
    assert state_root(post) == big_chain.tip.header.state_root and len(forks) == 1
    ends = range(PER_BLOCK, N_TXS + 1, PER_BLOCK)
    assert [bool(b.__dict__.get("_signed")) for b in big_chain.blocks[1:]] == [end <= HALF for end in ends]


def _with_bad_signature(chain, height: int, index: int):
    """*chain* with one signature byte of tx *index* at *height* flipped; its tx root still holds."""
    block = chain.blocks[height]
    txs = list(block.transactions)
    signature = bytearray.fromhex(txs[index].signature)
    signature[0] ^= 1
    txs[index] = dataclasses.replace(txs[index], signature=signature.hex())
    header = dataclasses.replace(block.header, tx_root=ledger.tx_root(txs))
    bad = ledger.Block(header, tuple(txs), block.events)
    return ledger.Chain(blocks=(*chain.blocks[:height], bad, *chain.blocks[height + 1:]))


# Each verdict as the serial replay gave it before the bulk check existed.
@pytest.mark.parametrize("height, index, message", [
    (5, 3, "transaction 3 invalid: BadSignature"),  # the parent's share
    (20, 7, "transaction 7 invalid: BadSignature"),  # the child's share
    (30, 19, "transaction 19 invalid: BadSignature"),  # the last block
], ids=["parent's share", "child's share", "last block"])
def test_a_bad_signature_fails_at_its_height_with_its_message(big_chain, genesis_state, forks,
                                                              height, index, message):
    chain = _with_bad_signature(big_chain, height, index)
    assert chain.height == 30
    failure = ledger.verify_chain(chain, genesis_state)
    assert (failure.height, str(failure)) == (height, message) and len(forks) == 1
    assert chain.blocks[height].__dict__["_signed"] is False
    serial = _with_another_thread(lambda: ledger.verify_chain(chain, genesis_state))
    assert (serial.height, str(serial)) == (height, message) and len(forks) == 1


def test_a_copy_of_a_marked_block_carries_no_mark(big_chain, genesis_state):
    ledger.replay(genesis_state, big_chain)
    block = big_chain.blocks[1]
    assert block.__dict__.get("_signed") is True
    assert "_signed" not in dataclasses.replace(block).__dict__
