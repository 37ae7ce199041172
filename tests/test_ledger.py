import dataclasses
import hashlib
import json
import random
import zlib

import pytest

from rolechain import codec
from rolechain.errors import (
    HeightGap, InvalidTransaction, LinkMismatch, ReplayDivergence, RootMismatch,
)
from rolechain.ledger import (
    Block,
    BlockHeader,
    Chain,
    append_block,
    build_block,
    genesis_block,
    hash_header,
    new_chain,
    replay,
    verify_chain,
)
from rolechain.state import Event

from conftest import make_chain
from oracles import mutate_one_byte

EMPTY_TX_ROOT = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"


def _reference_header_bytes(height, prev_hash, proposer, st_root, timestamp, txr) -> bytes:
    # Hand-built canonical serialization, independent of the codec module:
    # keys in lexicographic order, no whitespace, decimal ints, hex strings.
    return (
        '{"height":%d,"prev_hash":"%s","proposer":"%s","state_root":"%s",'
        '"timestamp":%d,"tx_root":"%s"}' % (height, prev_hash, proposer, st_root, timestamp, txr)
    ).encode()


def test_hash_header_pinned_vector():
    header = BlockHeader(
        height=0, prev_hash="0" * 64, tx_root=EMPTY_TX_ROOT,
        state_root="0" * 64, proposer="0" * 40, timestamp=0,
    )
    ref = hashlib.sha256(
        _reference_header_bytes(0, "0" * 64, "0" * 40, "0" * 64, 0, EMPTY_TX_ROOT)
    ).hexdigest()
    assert hash_header(header) == ref
    # frozen once from the reference implementation above; must never drift
    assert ref == "2440dd13af4af4a9dd3e63979b6fd722b8be7e024f8cb9ef8c53c8d846500d54"


def test_hash_header_independent_reference_on_real_header(genesis_state):
    header = genesis_block(genesis_state).header
    ref = hashlib.sha256(_reference_header_bytes(
        header.height, header.prev_hash, header.proposer,
        header.state_root, header.timestamp, header.tx_root,
    )).hexdigest()
    assert hash_header(header) == ref


def test_hash_header_sensitivity_and_determinism(genesis_state):
    h = genesis_block(genesis_state).header
    assert hash_header(h) == hash_header(h)
    bumped = dataclasses.replace(h, timestamp=h.timestamp + 1)
    assert hash_header(bumped) != hash_header(h)


def test_empty_block_keeps_state_root(genesis_state, wallets):
    chain = new_chain(genesis_state)
    block = build_block(chain.tip.header, [], genesis_state, wallets["v0"].address, tick=1)
    assert block.header.height == 1
    assert block.header.state_root == chain.tip.header.state_root
    assert block.header.tx_root == EMPTY_TX_ROOT
    assert block.events == ()


def test_block_with_register_emits_event(genesis_state, txf, wallets):
    chain = new_chain(genesis_state)
    block = build_block(
        chain.tip.header, [txf.register("alice", "acme", "member")],
        genesis_state, wallets["v0"].address, tick=1,
    )
    assert [e.kind for e in block.events] == ["UserRegistered"]
    assert block.events[0].height == 1 and block.events[0].tx_index == 0


def test_duplicate_register_aborts_block(genesis_state, txf, wallets):
    tx1 = txf.register("alice", "acme", "member")
    tx2 = txf.register("alice", "acme", "member", nonce=1)

    # reference: apply sequentially against a plain map-based model
    model_users = set()
    expected_failure = None
    for i, tx in enumerate([tx1, tx2]):
        user = tx.payload.user
        if user in model_users:
            expected_failure = (i, "AlreadyRegistered")
            break
        model_users.add(user)
    assert expected_failure == (1, "AlreadyRegistered")

    chain = new_chain(genesis_state)
    with pytest.raises(InvalidTransaction) as exc:
        build_block(chain.tip.header, [tx1, tx2], genesis_state, wallets["v0"].address, 1)
    assert (exc.value.index, exc.value.reason) == expected_failure


def test_append_extends_by_one(genesis_state, wallets):
    chain = new_chain(genesis_state)
    block = build_block(chain.tip.header, [], genesis_state, wallets["v0"].address, 1)
    longer = append_block(chain, block)
    assert len(longer) == 2
    assert longer.blocks[0] is chain.blocks[0]


def test_append_link_mismatch(genesis_state, wallets):
    chain = new_chain(genesis_state)
    block = build_block(chain.tip.header, [], genesis_state, wallets["v0"].address, 1)
    bad = Block(
        dataclasses.replace(block.header, prev_hash="ab" * 32),
        block.transactions, block.events,
    )
    with pytest.raises(LinkMismatch):
        append_block(chain, bad)


def test_append_height_gap(genesis_state, wallets):
    chain = new_chain(genesis_state)
    block = build_block(chain.tip.header, [], genesis_state, wallets["v0"].address, 1)
    skipped = Block(
        dataclasses.replace(block.header, height=2), block.transactions, block.events
    )
    with pytest.raises(HeightGap):
        append_block(chain, skipped)


def test_append_tx_root_mismatch(genesis_state, txf, wallets):
    chain = new_chain(genesis_state)
    tx = txf.register("alice", "acme", "member")
    block = build_block(chain.tip.header, [tx], genesis_state, wallets["v0"].address, 1)
    stripped = Block(block.header, (), block.events)
    with pytest.raises(RootMismatch):
        append_block(chain, stripped)


def _ten_block_chain(genesis_state, txf, wallets):
    txs = [
        txf.register("alice", "acme", "member"),
        txf.register("bob", "acme", "contractor"),
        txf.update("admin_acme", "alice", "acme", "member", "auditor"),
        txf.grant("admin_acme", "acme", "auditor", "ledger", "read"),
        txf.grant("admin_acme", "acme", "auditor", "ledger", "write"),
        txf.revoke("admin_acme", "acme", "auditor", "ledger", "write"),
        txf.register("carol", "globex", "member"),
        txf.grant("admin_globex", "globex", "member", "api", "exec"),
        txf.update("admin_globex", "carol", "globex", "member", "analyst"),
        txf.grant("admin_acme", "acme", "member", "report", "read"),
    ]
    chain = make_chain(genesis_state, txs, proposer=wallets["v0"].address, per_block=1)
    assert chain.height == 10
    return chain


def test_verify_untampered_chain(genesis_state, txf, wallets):
    chain = _ten_block_chain(genesis_state, txf, wallets)
    assert verify_chain(chain, genesis_state) is None
    assert verify_chain(chain, genesis_state, expected_tip_hash=hash_header(chain.tip.header)) is None


def test_verify_detects_tx_byte_flip(genesis_state, txf, wallets):
    chain = _ten_block_chain(genesis_state, txf, wallets)
    target = chain.blocks[3]
    doc = target.to_dict()
    doc["transactions"][0]["payload"]["org"] = "acmx"
    tampered = Chain(blocks=(*chain.blocks[:3], Block.from_dict(doc), *chain.blocks[4:]))
    failure = verify_chain(tampered, genesis_state)
    assert failure is not None and failure.height <= 3


def test_verify_detects_replaced_event(genesis_state, txf, wallets):
    chain = _ten_block_chain(genesis_state, txf, wallets)
    target = chain.blocks[5]
    attrs = dict(target.events[0].attrs)
    attrs["role"] = "member"  # event claims a different role than the tx produced
    forged_event = Event.make(
        target.events[0].kind, attrs, target.events[0].height, target.events[0].tx_index
    )
    tampered_block = Block(target.header, target.transactions, (forged_event,))
    tampered = Chain(blocks=(*chain.blocks[:5], tampered_block, *chain.blocks[6:]))
    failure = verify_chain(tampered, genesis_state)
    assert failure is not None and failure.height == 5


def test_verify_wrong_genesis_state(genesis_state, txf, wallets):
    chain = _ten_block_chain(genesis_state, txf, wallets)
    not_genesis = genesis_state.clone()
    not_genesis.nonces["ff" * 20] = 1
    failure = verify_chain(chain, not_genesis)
    assert failure is not None and failure.height == 0


def test_verify_detects_tip_header_tamper_with_anchor(genesis_state, txf, wallets):
    chain = _ten_block_chain(genesis_state, txf, wallets)
    anchor = hash_header(chain.tip.header)
    forged_tip = Block(
        dataclasses.replace(chain.tip.header, proposer=wallets["v1"].address),
        chain.tip.transactions, chain.tip.events,
    )
    tampered = Chain(blocks=(*chain.blocks[:-1], forged_tip))
    failure = verify_chain(tampered, genesis_state, expected_tip_hash=anchor)
    assert failure is not None and failure.height == chain.height


def test_random_single_byte_mutations_are_detected(genesis_state, txf, wallets):
    """Miniature of the randomized tamper sweep in the acceptance suite."""
    chain = _ten_block_chain(genesis_state, txf, wallets)
    anchor = hash_header(chain.tip.header)
    rng = random.Random(99)
    for _ in range(60):
        h = rng.randrange(len(chain.blocks))
        raw = codec.canonical_bytes(chain.blocks[h].to_dict())
        mutated, _ = mutate_one_byte(raw, rng)
        try:
            block = Block.from_dict(json.loads(mutated.decode("utf-8")))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            continue  # detected at parse time, at the mutated height
        tampered = Chain(blocks=(*chain.blocks[:h], block, *chain.blocks[h + 1:]))
        failure = verify_chain(tampered, genesis_state, expected_tip_hash=anchor)
        assert failure is not None, f"undetected mutation in block {h}"
        assert failure.height <= h


def test_exhaustive_single_byte_mutation_on_small_chain(genesis_state, txf, wallets):
    """Flip every byte of every committed block once; all flips must be caught."""
    txs = [
        txf.register("alice", "acme", "member"),
        txf.grant("admin_acme", "acme", "member", "ledger", "read"),
    ]
    chain = make_chain(genesis_state, txs, proposer=wallets["v0"].address, per_block=1)
    anchor = hash_header(chain.tip.header)
    for h, original in enumerate(chain.blocks):
        raw = codec.canonical_bytes(original.to_dict())
        for pos in range(len(raw)):
            mutated = raw[:pos] + bytes([raw[pos] ^ 0x01]) + raw[pos + 1:]
            try:
                block = Block.from_dict(json.loads(mutated.decode("utf-8")))
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                continue  # malformed: rejected while parsing, at this height
            tampered = Chain(blocks=(*chain.blocks[:h], block, *chain.blocks[h + 1:]))
            failure = verify_chain(tampered, genesis_state, expected_tip_hash=anchor)
            assert failure is not None, f"byte {pos} of block {h} slipped through"
            assert failure.height <= h


def test_verify_chain_returns_the_divergence_that_replay_raises(genesis_state, txf, wallets):
    """Over the byte-flip corpus the verdict is replay's own error, with its height and text."""
    txs = [
        txf.register("alice", "acme", "member"),
        txf.grant("admin_acme", "acme", "member", "ledger", "read"),
    ]
    chain = make_chain(genesis_state, txs, proposer=wallets["v0"].address, per_block=1)
    anchor = hash_header(chain.tip.header)
    diverged = anchored = 0
    for h, original in enumerate(chain.blocks):
        raw = codec.canonical_bytes(original.to_dict())
        for pos in range(len(raw)):
            mutated = raw[:pos] + bytes([raw[pos] ^ 0x01]) + raw[pos + 1:]
            try:
                block = Block.from_dict(json.loads(mutated.decode("utf-8")))
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                continue
            tampered = Chain(blocks=(*chain.blocks[:h], block, *chain.blocks[h + 1:]))
            try:
                replay(genesis_state, tampered)
            except ReplayDivergence as exc:
                failure = verify_chain(tampered, genesis_state)
                assert type(failure) is ReplayDivergence, (h, pos, failure)
                assert (failure.height, str(failure)) == (exc.height, str(exc)), (h, pos)
                diverged += 1
                continue
            # Only the tip header's own fields changed: the anchor alone catches it.
            assert verify_chain(tampered, genesis_state) is None
            failure = verify_chain(tampered, genesis_state, expected_tip_hash=anchor)
            assert type(failure) is ReplayDivergence, (h, pos, failure)
            assert (failure.height, str(failure)) == (
                chain.height, "tip header does not match the trusted anchor"
            )
            anchored += 1
    assert diverged > 100 and anchored > 0


def test_deterministic_chain_bytes(genesis_state, wallets):
    def build():
        from conftest import TxFactory
        from workloads import PASSPHRASE as _  # noqa: F401

        txf = TxFactory({n: w for n, w in wallets.items()})
        txs = [
            txf.register("alice", "acme", "member"),
            txf.grant("admin_acme", "acme", "member", "ledger", "read"),
        ]
        return make_chain(genesis_state, txs, proposer=wallets["v0"].address)

    c1, c2 = build(), build()
    assert [codec.canonical_bytes(b.to_dict()) for b in c1.blocks] == [
        codec.canonical_bytes(b.to_dict()) for b in c2.blocks
    ]


def test_append_preserves_prior_block_bytes(genesis_state, txf, wallets):
    chain = new_chain(genesis_state)
    state = genesis_state
    snapshots = [codec.canonical_bytes(chain.blocks[0].to_dict())]
    from rolechain.state import apply_transaction

    for name in ["alice", "bob", "carol"]:
        tx = txf.register(name, "acme", "member")
        block = build_block(chain.tip.header, [tx], state, wallets["v0"].address, chain.height + 1)
        state, _ = apply_transaction(state, tx, height=block.header.height, tx_index=0)
        chain = append_block(chain, block)
        for i, expected in enumerate(snapshots):
            assert codec.canonical_bytes(chain.blocks[i].to_dict()) == expected
        snapshots.append(codec.canonical_bytes(chain.blocks[-1].to_dict()))


BOOLEAN_FIELDS = [("height",), ("timestamp",), ("height", "timestamp")]


def _with_boolean_header(genesis_state, wallets, fields):
    """A chain of genesis and one empty block, and that block's document with *fields* set to ``true``."""
    chain = new_chain(genesis_state)
    block = build_block(chain.tip.header, [], genesis_state, wallets["v0"].address, 1)
    chain = append_block(chain, block)
    doc = {**block.to_dict(), "header": {**block.header.to_dict(), **dict.fromkeys(fields, True)}}
    return chain, doc


def _store_with_line(path, genesis, doc):
    """A store holding *genesis*, then *doc* as line 1 under a valid CRC."""
    from rolechain.store import Store

    store = Store(path)
    store.append(genesis)
    crc = f"{zlib.crc32(codec.canonical_bytes(doc)):08x}"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(codec.canonical_dumps({"block": doc, "crc32": crc}) + "\n")
    return store


@pytest.mark.parametrize("fields", BOOLEAN_FIELDS)
def test_a_boolean_height_or_timestamp_is_refused(genesis_state, wallets, tmp_path, fields):
    """Canonical JSON spells True as ``true``, not as a decimal integer, so no header may hold it.

    The constructor refuses the booleans, so no in-memory ``Chain`` can hold
    such a header and ``verify_chain`` is never handed one. ``chain verify``
    reads a stored chain through the store, which refuses it as line 1 of 3.
    """
    from rolechain.errors import CorruptStore
    from rolechain.store import read_chain

    chain, doc = _with_boolean_header(genesis_state, wallets, fields)
    block = chain.blocks[1]
    with pytest.raises(ValueError, match="must be an integer"):
        BlockHeader.from_dict(doc["header"])
    with pytest.raises(ValueError, match="must be an integer"):
        Block.from_dict(doc)
    with pytest.raises(ValueError, match="must be an integer"):
        dataclasses.replace(block.header, **dict.fromkeys(fields, True))

    path = tmp_path / "chain.jsonl"
    store = _store_with_line(path, chain.blocks[0], doc)
    store.append(build_block(block.header, [], genesis_state, wallets["v0"].address, 2))
    with pytest.raises(CorruptStore, match="must be an integer") as exc:
        read_chain(path)
    assert exc.value.height == 1


@pytest.mark.parametrize("fields", BOOLEAN_FIELDS)
def test_a_boolean_header_on_the_final_store_line_is_refused(genesis_state, wallets, tmp_path, fields):
    """A whole final line under a matching CRC is durable: it is refused, never cut as torn."""
    from rolechain.errors import CorruptStore
    from rolechain.store import read_chain

    chain, doc = _with_boolean_header(genesis_state, wallets, fields)
    path = tmp_path / "chain.jsonl"
    _store_with_line(path, chain.blocks[0], doc)
    with pytest.raises(CorruptStore, match="must be an integer"):
        read_chain(path)
