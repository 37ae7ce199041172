import json
import os
import random
import stat
import zlib

import pytest

from rolechain import codec
from rolechain.errors import CorruptStore
from rolechain.ledger import Chain
from rolechain.store import (
    GenesisFile,
    Store as open_store,
    build_genesis_state,
    load_chain,
    load_genesis,
    save_genesis,
)

from rolechain.wallet import save_wallet

from conftest import make_chain
from oracles import mutate_one_byte


@pytest.fixture
def chain10(genesis_state, txf, wallets):
    txs = [
        txf.register("alice", "acme", "member"),
        txf.register("bob", "acme", "member"),
        txf.grant("admin_acme", "acme", "member", "ledger", "read"),
        txf.update("admin_acme", "alice", "acme", "member", "auditor"),
        txf.register("carol", "globex", "member"),
        txf.grant("admin_globex", "globex", "member", "api", "exec"),
        txf.revoke("admin_acme", "acme", "member", "ledger", "read"),
        txf.update("admin_globex", "carol", "globex", "member", "analyst"),
        txf.register("dave", "acme", "contractor"),
        txf.grant("admin_acme", "acme", "auditor", "vault", "audit"),
    ]
    return make_chain(genesis_state, txs, proposer=wallets["v0"].address, per_block=1)


def _write(tmp_path, chain, name="chain.jsonl"):
    store = open_store(tmp_path / name)
    for block in chain.blocks:
        store.append(block)
    return store


def test_round_trip_is_byte_identical(tmp_path, chain10):
    store = _write(tmp_path, chain10)
    loaded = load_chain(store)
    assert len(loaded) == len(chain10)
    for a, b in zip(loaded.blocks, chain10.blocks):
        assert codec.canonical_bytes(a.to_dict()) == codec.canonical_bytes(b.to_dict())


def test_every_append_prefix_loads_exactly(tmp_path, chain10, genesis_state):
    path = tmp_path / "prefix.jsonl"
    store = open_store(path)
    for n, block in enumerate(chain10.blocks, start=1):
        store.append(block)
        assert len(load_chain(open_store(path))) == n


def test_torn_final_line_is_truncated_with_warning(tmp_path, chain10, caplog):
    store = _write(tmp_path, chain10)
    raw = store.path.read_bytes()
    store.path.write_bytes(raw[: len(raw) - 17])  # cut into the last line
    with caplog.at_level("WARNING"):
        loaded = load_chain(open_store(store.path))
    assert len(loaded) == len(chain10) - 1
    assert any("truncating torn final line" in r.message for r in caplog.records)
    # the truncation is persistent: appending after recovery keeps a clean file
    store.append(chain10.blocks[-1])
    assert len(load_chain(open_store(store.path))) == len(chain10)


def test_every_truncation_point_recovers_a_verified_prefix(tmp_path, genesis_state, txf, wallets):
    txs = [txf.register(u, "acme", "member") for u in ["alice", "bob", "carol"]]
    chain = make_chain(genesis_state, txs, proposer=wallets["v0"].address, per_block=1)
    full = _write(tmp_path, chain, "full.jsonl").path.read_bytes()
    line_ends = [i + 1 for i, b in enumerate(full) if b == 0x0A]

    target = tmp_path / "cut.jsonl"
    for cut in range(len(full) + 1):
        target.write_bytes(full[:cut])
        try:
            loaded = load_chain(open_store(target))
        except CorruptStore:
            continue  # reported, never silently accepted
        whole_lines = sum(1 for e in line_ends if e <= cut)
        assert len(loaded) == whole_lines
        for i, block in enumerate(loaded.blocks):
            assert codec.canonical_bytes(block.to_dict()) == codec.canonical_bytes(
                chain.blocks[i].to_dict()
            )


def test_interior_corruption_is_reported_with_height(tmp_path, chain10):
    store = _write(tmp_path, chain10)
    lines = store.path.read_bytes().split(b"\n")
    rng = random.Random(7)
    mutated, _ = mutate_one_byte(lines[5], rng)
    lines[5] = mutated
    store.path.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptStore) as exc:
        load_chain(open_store(store.path))
    assert exc.value.height == 5


def test_crc_catches_content_swap_with_valid_json(tmp_path, chain10):
    store = _write(tmp_path, chain10)
    lines = store.path.read_bytes().split(b"\n")
    doc = json.loads(lines[4])
    doc["block"]["header"]["timestamp"] = 999  # keep JSON valid, break the CRC
    lines[4] = codec.canonical_dumps(doc).encode()
    store.path.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptStore) as exc:
        load_chain(open_store(store.path))
    assert exc.value.height == 4


def test_a_whole_final_line_that_holds_no_block_is_refused_not_truncated(tmp_path, chain10):
    """Its newline and matching CRC show it was written whole, so it is no torn write."""
    store = _write(tmp_path, chain10)
    lines = store.path.read_bytes().split(b"\n")
    doc = json.loads(lines[-2])
    del doc["block"]["events"]  # JSON and CRC stay valid; the block does not decode
    doc["crc32"] = f"{zlib.crc32(codec.canonical_bytes(doc['block'])):08x}"
    lines[-2] = codec.canonical_dumps(doc).encode()
    store.path.write_bytes(b"\n".join(lines))
    before = store.path.read_bytes()
    with pytest.raises(CorruptStore) as exc:
        load_chain(open_store(store.path))
    assert exc.value.height == len(chain10) - 1
    assert store.path.read_bytes() == before


def test_block_bytes_that_are_not_canonical_load_as_the_block_they_decode_to(tmp_path, chain10,
                                                                             genesis_state):
    """The CRC covers the bytes on disk, and the audit checks the block they decode to."""
    from rolechain.ledger import replay
    from rolechain.state import state_root

    store = _write(tmp_path, chain10)
    lines = store.path.read_bytes().split(b"\n")
    body = json.dumps(chain10.blocks[4].to_dict(), separators=(", ", ": ")).encode()
    assert body != codec.canonical_bytes(chain10.blocks[4])
    lines[4] = b'{"block":%s,"crc32":"%08x"}' % (body, zlib.crc32(body))
    store.path.write_bytes(b"\n".join(lines))
    loaded = load_chain(open_store(store.path))
    assert codec.canonical_bytes(loaded.blocks[4]) == codec.canonical_bytes(chain10.blocks[4])
    assert state_root(replay(genesis_state, loaded)) == chain10.tip.header.state_root


OTHER_FRAMES = {
    "space after block": lambda body, crc: b'{"block": %s,"crc32":"%08x"}' % (body, crc),
    "crc first": lambda body, crc: b'{"crc32":"%08x","block":%s}' % (crc, body),
}


@pytest.mark.parametrize("final", [False, True])
@pytest.mark.parametrize("frame", OTHER_FRAMES.values(), ids=OTHER_FRAMES.keys())
def test_a_line_framed_otherwise_than_append_writes_is_no_block_line(tmp_path, chain10, final, frame):
    """Valid JSON under a matching CRC, but not the one framing: corruption inside, a torn write last."""
    store = _write(tmp_path, chain10)
    lines = store.path.read_bytes().split(b"\n")
    at = len(lines) - 2 if final else 5
    body = codec.canonical_bytes(chain10.blocks[at])
    lines[at] = frame(body, zlib.crc32(body))
    assert json.loads(lines[at])["block"] == chain10.blocks[at].to_dict()
    store.path.write_bytes(b"\n".join(lines))
    if final:
        assert len(load_chain(open_store(store.path))) == len(chain10) - 1
    else:
        with pytest.raises(CorruptStore) as exc:
            load_chain(open_store(store.path))
        assert exc.value.height == at


@pytest.mark.parametrize("final", [False, True])
def test_a_line_nested_too_deep_is_json_that_does_not_parse(tmp_path, chain10, final):
    """An interior one is corruption at its height; a final one is a torn write."""
    store = _write(tmp_path, chain10)
    lines = store.path.read_bytes().split(b"\n")
    at = len(lines) - 2 if final else 5
    lines[at] = b"[" * 5000 + b"]" * 5000
    store.path.write_bytes(b"\n".join(lines))
    if final:
        assert len(load_chain(open_store(store.path))) == len(chain10) - 1
        assert store.path.read_bytes() == b"\n".join(lines[:at] + [b""])
    else:
        with pytest.raises(CorruptStore) as exc:
            load_chain(open_store(store.path))
        assert exc.value.height == at


def test_empty_store_is_corrupt(tmp_path):
    with pytest.raises(CorruptStore):
        load_chain(open_store(tmp_path / "void.jsonl"))


def test_replay_from_disk_matches_incremental_build(tmp_path, chain10, genesis_state):
    from rolechain.ledger import replay
    from rolechain.state import state_root

    store = _write(tmp_path, chain10)
    loaded = load_chain(store)
    assert state_root(replay(genesis_state, loaded)) == chain10.tip.header.state_root


def test_cold_start_hashes_each_header_and_tx_list_once(tmp_path, chain10, genesis_state,
                                                        monkeypatch):
    """Load checks storage only; the audit in replay checks each link and tx root once."""
    from rolechain import ledger

    calls = {"tx_root": 0, "hash_header": 0}
    for name in calls:
        original = getattr(ledger, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ledger, name, counting)
    store = _write(tmp_path, chain10)
    ledger.replay(genesis_state, load_chain(store))
    assert len(chain10) == 11
    assert calls["tx_root"] <= 11 and calls["hash_header"] <= 11, calls


def test_genesis_file_round_trip(tmp_path, genesis_file):
    path = tmp_path / "genesis.json"
    save_genesis(genesis_file, path)
    loaded = load_genesis(path)
    assert loaded == genesis_file
    assert build_genesis_state(loaded).to_dict() == build_genesis_state(genesis_file).to_dict()


def test_genesis_validation(genesis_file, wallets):
    from rolechain.state import OrgRecord, RolePolicy

    with pytest.raises(ValueError):
        build_genesis_state(GenesisFile(chain_id="", validators=genesis_file.validators))
    with pytest.raises(ValueError):
        build_genesis_state(GenesisFile(chain_id="x", validators=()))
    with pytest.raises(ValueError):
        reserved = OrgRecord(
            "org", frozenset({wallets["admin_acme"].address}),
            {"none": RolePolicy("none", self_assignable=True)},
        )
        build_genesis_state(GenesisFile(chain_id="x", validators=genesis_file.validators,
                                        orgs=(reserved,)))


@pytest.mark.parametrize("key, role_id", [("member", "owner"), ("x", "none")])
def test_genesis_refuses_a_catalog_key_that_is_not_its_role_id(genesis_file, wallets, key, role_id):
    """A catalog key names the role the policy is for; ``none`` cannot hide under another key."""
    from rolechain.state import OrgRecord, RolePolicy

    # The role policy refuses the reserved id itself, before the org sees its key.
    message = "role id 'none' is reserved" if role_id == "none" else (
        f"org 'org' lists role '{role_id}' under key '{key}'")
    with pytest.raises(ValueError, match=message):
        org = OrgRecord("org", frozenset({wallets["admin_acme"].address}), {key: RolePolicy(role_id)})
        build_genesis_state(GenesisFile(chain_id="x", validators=genesis_file.validators, orgs=(org,)))


@pytest.mark.parametrize("case", ["store created", "wallet saved", "torn tail truncated"])
def test_each_durable_change_is_fsynced(tmp_path, chain10, wallets, monkeypatch, case):
    """Record what each ``os.fsync`` call synced: (is a directory, inode)."""
    if case == "torn tail truncated":
        store = _write(tmp_path, chain10)
        with open(store.path, "ab") as fh:
            fh.write(b'{"block": {"hea')
    synced = []
    fsync = os.fsync

    def recording(fd):
        st = os.fstat(fd)
        synced.append((stat.S_ISDIR(st.st_mode), st.st_ino))
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    if case == "store created":
        store = open_store(tmp_path / "data" / "chain.jsonl")
        assert (True, os.stat(tmp_path / "data").st_ino) in synced  # the file's entry
        assert (True, os.stat(tmp_path).st_ino) in synced  # the new data dir's entry
    elif case == "wallet saved":
        save_wallet(wallets["alice"], tmp_path / "alice.json")
        # The temp file first, then the directory holding the renamed entry.
        assert synced[-1] == (True, os.stat(tmp_path).st_ino)
        assert synced[-2] == (False, os.stat(tmp_path / "alice.json").st_ino)
    else:
        assert len(load_chain(store)) == len(chain10)
        assert synced == [(False, os.stat(store.path).st_ino)]


def test_the_store_tracks_the_height_it_holds(tmp_path, chain10):
    path = tmp_path / "chain.jsonl"
    fresh = open_store(path)
    assert fresh.height == -1
    fresh.extend(Chain(blocks=chain10.blocks[:4]))
    assert fresh.height == 3
    fresh.extend(chain10)  # only the blocks above height 3
    assert fresh.height == 10 and load_chain(open_store(path)) == chain10

    reopened = open_store(path)
    assert reopened.height is None
    with pytest.raises(ValueError, match="not read"):
        reopened.extend(chain10)
    assert load_chain(reopened) == chain10 and reopened.height == 10
    before = path.read_bytes()
    reopened.extend(chain10)
    assert path.read_bytes() == before
