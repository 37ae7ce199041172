"""Acceptance suite. One test per criterion; each prints a PASS line when it
holds (run with ``pytest tests/test_acceptance.py -s`` to watch them go by).
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest
import requests

from rolechain import codec, sco, scu
from rolechain.api import ApiServer, NodeHandle
from rolechain.consensus import (
    CrashRule,
    Network,
    NetworkConfig,
    PartitionRule,
    run_until_quiescent,
    submit_tx,
)
from rolechain.errors import (
    AlreadyRegistered,
    DuplicateGrant,
    NotAuthorized,
    NotGranted,
    SimTimeout,
)
from rolechain.ledger import Block, Chain, hash_header, replay, verify_chain
from rolechain.sco import check_permission
from rolechain.state import Permission, apply_transaction, state_root
from rolechain.wallet import create_wallet, sign_transaction, verify_signature

from conftest import PASSPHRASE, TxFactory, make_chain
from oracles import brute_force_check, fold_events, mutate_one_byte, on_a_copy, plain_relations
from workloads import WorkloadBuilder

register_user = on_a_copy(scu.register_user)
update_user_role = on_a_copy(scu.update_user_role)
grant_permission = on_a_copy(sco.grant_permission)
revoke_permission = on_a_copy(sco.revoke_permission)

HERE = os.path.dirname(os.path.abspath(__file__))


def _workload(genesis_file, wallets, seed, n, n_users=12):
    wb = WorkloadBuilder(genesis_file, seed=seed, n_users=n_users)
    wb.attach_admins({w.address: w for w in wallets.values()}, PASSPHRASE)
    return wb, wb.generate(n)


# -- 1 ------------------------------------------------------------------------

def test_acceptance_1_contract_conformance(genesis_file, genesis_state, wallets):
    started = time.monotonic()
    txf = TxFactory(wallets)

    # the example tables of the six contract functions
    s, events = register_user(genesis_state, txf.register("alice", "acme", "member"))
    assert [e.kind for e in events] == ["UserRegistered"]
    with pytest.raises(AlreadyRegistered):
        register_user(s, txf.register("alice", "acme", "member", nonce=1))

    s, events = update_user_role(s, txf.update("admin_acme", "alice", "acme", "member", "auditor"))
    assert [e.kind for e in events] == ["UserRoleUpdated"]
    with pytest.raises(NotAuthorized):
        update_user_role(s, txf.update("alice", "alice", "acme", "auditor", "owner"))

    s, events = grant_permission(s, txf.grant("admin_acme", "acme", "auditor", "ledger", "read"))
    assert [e.kind for e in events] == ["PermissionGranted"]
    with pytest.raises(DuplicateGrant):
        grant_permission(s, txf.grant("admin_acme", "acme", "auditor", "ledger", "read"))

    assert check_permission(s, wallets["alice"].address, "acme", Permission("ledger", "read")).granted
    s, events = revoke_permission(s, txf.revoke("admin_acme", "acme", "auditor", "ledger", "read"))
    assert [e.kind for e in events] == ["PermissionRevoked"]
    assert not check_permission(s, wallets["alice"].address, "acme", Permission("ledger", "read")).granted
    with pytest.raises(NotGranted):
        revoke_permission(s, txf.revoke("admin_acme", "acme", "auditor", "ledger", "read"))

    # 1,000 randomized check_permission cases against the brute-force oracle
    rng = random.Random(2024)
    wb, txs = _workload(genesis_file, wallets, seed=404, n=250, n_users=18)
    state = genesis_state
    for tx in txs:
        state, _ = apply_transaction(state, tx)
    ura, pra = plain_relations(state)
    user_pool = sorted(wb.wallets) + ["ff" * 20]
    org_pool = sorted(wb.orgs) + ["nowhere"]
    perm_pool = [(r, a) for r in ["ledger", "vault", "report", "api", "ghost"]
                 for a in ["read", "write", "audit", "exec"]]
    agreements = 0
    for _ in range(1000):
        user = rng.choice(user_pool)
        org = rng.choice(org_pool)
        perm = rng.choice(perm_pool)
        result = check_permission(state, user, org, Permission(*perm))
        granted, via = brute_force_check(ura, pra, user, org, perm)
        assert (result.granted, set(result.via_roles)) == (granted, via)
        agreements += 1
    elapsed = time.monotonic() - started
    assert agreements == 1000
    assert elapsed < 10.0, f"criterion 1 budget exceeded: {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: contract conformance, 1000/1000 oracle agreement in {elapsed:.2f}s")


# -- 2 ------------------------------------------------------------------------

def test_acceptance_2_audit_log_completeness(genesis_file, genesis_state, wallets):
    for seed in [1, 7, 42, 1337, 2718, 31415]:
        _, txs = _workload(genesis_file, wallets, seed=seed, n=200, n_users=14)
        state = genesis_state
        log = []
        for i, tx in enumerate(txs):
            state, events = apply_transaction(state, tx, height=1 + i // 5, tx_index=i % 5)
            log.extend(e.to_dict() for e in events)
        folded_ura, folded_pra = fold_events(log)
        ura, pra = plain_relations(state)
        assert folded_ura == ura, f"ura divergence for seed {seed}"
        assert folded_pra == pra, f"pra divergence for seed {seed}"
    print("\nACCEPTANCE 2 PASS: event-log folds reconstruct ura/pra exactly on 6 workloads")


# -- 3 ------------------------------------------------------------------------

def test_acceptance_3_tamper_evidence(genesis_file, genesis_state, wallets):
    started = time.monotonic()
    _, txs = _workload(genesis_file, wallets, seed=99, n=50, n_users=10)
    chain = make_chain(genesis_state, txs, proposer=wallets["v0"].address, per_block=1)
    assert chain.height == 50
    assert verify_chain(chain, genesis_state) is None
    anchor = hash_header(chain.tip.header)

    rng = random.Random(555)
    block_bytes = [codec.canonical_bytes(b.to_dict()) for b in chain.blocks]
    detected = 0
    trials = 500
    for _ in range(trials):
        h = rng.randrange(len(chain.blocks))
        mutated, _ = mutate_one_byte(block_bytes[h], rng)
        try:
            block = Block.from_dict(json.loads(mutated.decode("utf-8")))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            detected += 1  # rejected while parsing the mutated block itself
            continue
        tampered = Chain(blocks=(*chain.blocks[:h], block, *chain.blocks[h + 1:]))
        failure = verify_chain(tampered, genesis_state, expected_tip_hash=anchor)
        assert failure is not None, f"missed mutation in block {h}"
        assert failure.height <= h, f"late detection: mutated {h}, flagged {failure.height}"
        detected += 1
    elapsed = time.monotonic() - started
    assert detected == trials
    assert elapsed < 30.0, f"criterion 3 budget exceeded: {elapsed:.2f}s"
    print(f"\nACCEPTANCE 3 PASS: {trials}/{trials} single-byte mutations detected in {elapsed:.2f}s")


# -- 4 ------------------------------------------------------------------------

def test_acceptance_4_replay_determinism(genesis_file, genesis_state, wallets):
    for seed in range(100):
        _, txs = _workload(genesis_file, wallets, seed=seed, n=30, n_users=8)
        chain = make_chain(genesis_state, txs, proposer=wallets["v1"].address, per_block=4)
        assert chain.tip.header.state_root == state_root(replay(genesis_state, chain)), seed

    child = os.path.join(HERE, "chain_digest_child.py")
    digests = []
    for hash_seed in ("101", "202"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, child, "77"], capture_output=True, text=True, env=env, check=True
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
    print("\nACCEPTANCE 4 PASS: 100 replay-equivalent runs; byte-identical chains across processes")


# -- 5 ------------------------------------------------------------------------

def test_acceptance_5_decentralization_and_fault_tolerance(genesis_state, wallets):
    vals = [wallets[f"v{i}"].address for i in range(4)]

    # any single crashed validator: every submitted valid tx still commits
    for crashed in range(4):
        txf = TxFactory(wallets)
        net = Network(
            NetworkConfig(validators=vals, rng_seed=60 + crashed,
                          crash_rules=[CrashRule(node=crashed, from_tick=0)]),
            genesis_state,
        )
        txs = [
            txf.register("alice", "acme", "member"),
            txf.register("bob", "globex", "member"),
            txf.grant("admin_acme", "acme", "member", "ledger", "read"),
        ]
        for tx in txs:
            ok, _, _ = submit_tx(net, tx, via=vals[(crashed + 1) % 4])
            assert ok
        report = run_until_quiescent(net, 500)
        up = [v for i, v in enumerate(vals) if i != crashed]
        assert len({report["nodes"][v]["height"] for v in up}) == 1
        assert len({report["nodes"][v]["state_root"] for v in up}) == 1
        assert sorted(e["kind"] for e in report["committed_events"]) == sorted(
            ["UserRegistered", "UserRegistered", "PermissionGranted"]
        ), f"crashed={crashed}"

    # symmetric 2/2 partition: safety over liveness, nothing commits
    txf = TxFactory(wallets)
    net = Network(
        NetworkConfig(validators=vals, rng_seed=91,
                      partition_rules=[PartitionRule(0, 10_000, ((0, 1), (2, 3)))]),
        genesis_state,
    )
    submit_tx(net, txf.register("carol", "acme", "member"), via=vals[0])
    with pytest.raises(SimTimeout) as exc:
        run_until_quiescent(net, 250)
    assert all(i["height"] == 0 for i in exc.value.report["nodes"].values())

    # heal mid-run: convergence to identical tips within the budget; deterministic
    def healed_run():
        txf = TxFactory(wallets)
        net = Network(
            NetworkConfig(validators=vals, rng_seed=91,
                          partition_rules=[PartitionRule(0, 60, ((0, 1), (2, 3)))]),
            genesis_state,
        )
        submit_tx(net, txf.register("carol", "acme", "member"), via=vals[0])
        return run_until_quiescent(net, 400)

    r1, r2 = healed_run(), healed_run()
    assert r1["quiescent"]
    assert {i["height"] for i in r1["nodes"].values()} == {1}
    assert len({i["state_root"] for i in r1["nodes"].values()}) == 1
    assert r1 == r2, "healed run is not deterministic"
    print("\nACCEPTANCE 5 PASS: single-crash commits, partition safety, deterministic post-heal convergence")


# -- 6 ------------------------------------------------------------------------

def test_acceptance_6_wallet_security(tmp_path, genesis_state, wallets):
    from rolechain import keys
    from rolechain.payloads import RegisterUserPayload
    from rolechain.wallet import save_wallet

    rng = random.Random(808)
    sample: list = []
    for i in range(1000):
        seed = bytes(rng.randrange(256) for _ in range(32))
        w = create_wallet(seed, PASSPHRASE, kdf_salt=bytes(16), iterations=10)
        payload = RegisterUserPayload(
            user=w.address, public_key=w.public_key, password_digest=w.password_digest,
            org=f"org{rng.randrange(50)}", requested_role=f"role{rng.randrange(50)}",
        )
        tx = sign_transaction(w, PASSPHRASE, w.address, rng.randrange(1000), payload)
        assert verify_signature(tx, w.public_key), f"round trip failed at {i}"
        if len(sample) < 30:
            sample.append((w, tx, seed))

    # every single-byte mutation of the signed payload bytes invalidates
    for w, tx, _ in sample:
        message = tx.signing_bytes()
        sig = bytes.fromhex(tx.signature)
        pk = bytes.fromhex(w.public_key)
        for pos in range(len(message)):
            corrupted = bytearray(message)
            corrupted[pos] ^= 0xFF
            assert not keys.verify(pk, bytes(corrupted), sig)

    # serialized wallets never contain raw key material
    for i, (w, _, seed) in enumerate(sample):
        path = tmp_path / f"w{i}.json"
        save_wallet(w, path)
        blob = path.read_bytes()
        assert seed not in blob and seed.hex().encode() not in blob
        assert PASSPHRASE.encode() not in blob

    # CLI traffic capture: registration + grant leave no secret bytes on the wire
    from click.testing import CliRunner

    from rolechain.cli import main as cli_main
    from test_cli import RecordingServer

    vals = [wallets[f"v{i}"].address for i in range(4)]
    network = Network(NetworkConfig(validators=vals, rng_seed=17), genesis_state)
    server = RecordingServer(NodeHandle(network, vals[0], chain_id="testnet"))
    try:
        alice_path = tmp_path / "alice_wallet.json"
        save_wallet(wallets["alice"], alice_path)
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "--node", server.url, "--wallet", str(alice_path), "--output", "json",
            "user", "register", "--org", "acme", "--role", "member",
        ], env={"ROLECHAIN_PASSPHRASE": PASSPHRASE,
                "ROLECHAIN_CONFIG": str(tmp_path / "none.json")})
        assert result.exit_code == 0, result.output
        capture = b"".join(server.captured)
        assert capture
        import hashlib as _h

        alice_seed = _h.sha256(b"rolechain-test-wallet:alice").digest()
        assert PASSPHRASE.encode() not in capture
        assert alice_seed not in capture and alice_seed.hex().encode() not in capture
        assert wallets["alice"].enc_private_key.encode() not in capture
    finally:
        server.stop()
    print("\nACCEPTANCE 6 PASS: 1000 sign/verify round trips, exhaustive mutation rejection, no key bytes at rest or on the wire")


# -- 7 ------------------------------------------------------------------------

def test_acceptance_7_end_to_end_workflow_over_http(genesis_state, wallets):
    vals = [wallets[f"v{i}"].address for i in range(4)]
    network = Network(NetworkConfig(validators=vals, rng_seed=23), genesis_state)
    entry = ApiServer(NodeHandle(network, vals[0], chain_id="testnet")).start()
    observer = ApiServer(NodeHandle(network, vals[3], chain_id="testnet")).start()
    txf = TxFactory(wallets)
    alice = wallets["alice"].address

    def post(server, tx):
        resp = requests.post(server.url + "/v1/transactions",
                             data=codec.canonical_dumps(tx.to_dict()), timeout=30)
        assert resp.status_code == 202, resp.text
        return resp.json()

    def check(server):
        return requests.get(server.url + "/v1/permissions/check", params={
            "user": alice, "org": "acme", "resource": "ledger", "action": "read",
        }, timeout=30).json()

    try:
        post(entry, txf.register("alice", "acme", "member"))
        post(entry, txf.update("admin_acme", "alice", "acme", "none", "auditor"))
        post(entry, txf.grant("admin_acme", "acme", "auditor", "ledger", "read"))
        granted = check(observer)
        assert granted["granted"] and granted["via_roles"] == ["auditor"]

        post(observer, txf.revoke("admin_acme", "acme", "auditor", "ledger", "read"))
        denied = check(entry)
        assert not denied["granted"]

        post(entry, txf.grant("admin_acme", "acme", "auditor", "ledger", "read"))

        events = requests.get(observer.url + "/v1/events", timeout=30).json()["events"]
        assert [e["kind"] for e in events] == [
            "UserRegistered",
            "UserRoleUpdated",
            "PermissionGranted",
            "PermissionRevoked",
            "PermissionGranted",
        ]
        assert events == sorted(events, key=lambda e: (e["height"], e["tx_index"]))
        heights = {requests.get(s.url + "/v1/status", timeout=30).json()["state_root"]
                   for s in (entry, observer)}
        assert len(heights) == 1
    finally:
        entry.stop()
        observer.stop()
    print("\nACCEPTANCE 7 PASS: full URA->PRA workflow over HTTP on a 4-node network, 5 events in order")
