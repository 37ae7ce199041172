import dataclasses
import http.client
import json
import socket
import threading
import time

import pytest
import requests

from rolechain import api, codec, consensus, keys
from rolechain.api import (
    MAX_BODY_BYTES,
    ApiServer,
    NodeHandle,
    ServiceConfig,
    build_node_service,
)
from rolechain.consensus import Network, NetworkConfig
from rolechain.errors import API_ERROR_CODES
from rolechain.ledger import Chain, build_block, genesis_block, verify_chain
from rolechain.store import Store, chain_path, save_genesis
from rolechain.wallet import decrypt_signing_key, save_wallet

from conftest import PASSPHRASE



@pytest.fixture
def cluster(genesis_file, genesis_state, wallets):
    """Two HTTP servers fronting different validators of one 4-node network."""
    vals = list(genesis_file.validators)
    network = Network(NetworkConfig(validators=vals, rng_seed=77), genesis_state)
    servers = [
        ApiServer(NodeHandle(network, vals[0], chain_id="testnet")).start(),
        ApiServer(NodeHandle(network, vals[2], chain_id="testnet")).start(),
    ]
    yield servers
    for s in servers:
        s.stop()


def _post_tx(server, tx):
    return requests.post(
        server.url + "/v1/transactions", data=json.dumps(tx.to_dict()), timeout=30
    )


def test_submit_and_read_your_commits(cluster, txf, wallets):
    s0, s2 = cluster
    resp = _post_tx(s0, txf.register("alice", "acme", "member"))
    assert resp.status_code == 202
    body = resp.json()
    assert body["accepted"] and body["committed_height"] == 1

    # committed work is immediately visible on this node and on its peer
    for server in cluster:
        blocks = requests.get(server.url + f"/v1/blocks/{body['committed_height']}").json()
        assert any(t["sender"] == wallets["alice"].address for t in blocks["transactions"])
        user = requests.get(server.url + f"/v1/users/{wallets['alice'].address}").json()
        assert user["address"] == wallets["alice"].address
        assert user["height"] >= body["committed_height"]


def test_full_lifecycle_through_two_nodes(cluster, txf, wallets):
    s0, s2 = cluster
    alice = wallets["alice"].address
    assert _post_tx(s0, txf.register("alice", "acme", "member")).status_code == 202
    assert _post_tx(s2, txf.update("admin_acme", "alice", "acme", "member", "auditor")).status_code == 202
    assert _post_tx(s0, txf.grant("admin_acme", "acme", "auditor", "ledger", "read")).status_code == 202

    check = requests.get(s2.url + "/v1/permissions/check", params={
        "user": alice, "org": "acme", "resource": "ledger", "action": "read",
    }).json()
    assert check["granted"] and check["via_roles"] == ["auditor"]
    assert check["height"] == 3

    assert _post_tx(s2, txf.revoke("admin_acme", "acme", "auditor", "ledger", "read")).status_code == 202
    check = requests.get(s0.url + "/v1/permissions/check", params={
        "user": alice, "org": "acme", "resource": "ledger", "action": "read",
    }).json()
    assert not check["granted"] and check["via_roles"] == []

    roles = requests.get(s0.url + f"/v1/users/{alice}/roles").json()
    assert roles["roles"] == {"acme": ["auditor"]}

    events = requests.get(s2.url + "/v1/events").json()["events"]
    assert [e["kind"] for e in events] == [
        "UserRegistered", "UserRoleUpdated", "PermissionGranted", "PermissionRevoked",
    ]
    assert events == sorted(events, key=lambda e: (e["height"], e["tx_index"]))


def test_event_filters(cluster, txf):
    s0, _ = cluster
    _post_tx(s0, txf.register("alice", "acme", "member"))
    _post_tx(s0, txf.register("carol", "globex", "member"))
    _post_tx(s0, txf.grant("admin_acme", "acme", "member", "ledger", "read"))
    _post_tx(s0, txf.revoke("admin_acme", "acme", "member", "ledger", "read"))

    by_kind = requests.get(s0.url + "/v1/events", params={"kind": "PermissionRevoked"}).json()
    assert [e["kind"] for e in by_kind["events"]] == ["PermissionRevoked"]
    by_org = requests.get(s0.url + "/v1/events", params={"org": "globex"}).json()
    assert {e["attributes"]["org"] for e in by_org["events"]} == {"globex"}
    tail = requests.get(s0.url + "/v1/events", params={"from_height": 3}).json()
    assert all(e["height"] >= 3 for e in tail["events"])


def test_check_for_unknown_user_is_denied_not_an_error(cluster):
    s0, _ = cluster
    resp = requests.get(s0.url + "/v1/permissions/check", params={
        "user": "ab" * 20, "org": "acme", "resource": "ledger", "action": "read",
    })
    assert resp.status_code == 200
    body = resp.json()
    assert body["granted"] is False and body["via_roles"] == []


def test_status_and_accounts(cluster, txf, wallets):
    s0, _ = cluster
    status = requests.get(s0.url + "/v1/status").json()
    assert status["height"] == 0 and status["chain_id"] == "testnet"

    account = requests.get(s0.url + f"/v1/accounts/{wallets['alice'].address}").json()
    assert account == {
        "address": wallets["alice"].address, "height": 0,
        "next_nonce": 0, "registered": False,
    }
    _post_tx(s0, txf.register("alice", "acme", "member"))
    account = requests.get(s0.url + f"/v1/accounts/{wallets['alice'].address}").json()
    assert account["next_nonce"] == 1 and account["registered"]


def test_genesis_block_readable(cluster):
    s0, _ = cluster
    block = requests.get(s0.url + "/v1/blocks/0").json()
    assert block["header"]["height"] == 0
    assert block["header"]["prev_hash"] == "0" * 64
    assert "hash" in block


def test_error_paths_use_the_closed_vocabulary(cluster, txf):
    s0, _ = cluster
    tx = txf.register("alice", "acme", "member")
    forged = json.loads(json.dumps(tx.to_dict()))
    forged["signature"] = "00" * 64

    cases = [
        requests.post(s0.url + "/v1/transactions", data=b"{not json", timeout=30),
        requests.post(s0.url + "/v1/transactions", data=b'{"sender": 3}', timeout=30),
        requests.post(s0.url + "/v1/transactions", data=json.dumps(forged), timeout=30),
        requests.post(s0.url + "/v1/nope", data=b"{}", timeout=30),
        requests.get(s0.url + "/v1/permissions/check", params={"user": "ab" * 20}),
        requests.get(s0.url + "/v1/permissions/check",
                     params={"user": "zz", "org": "o", "resource": "r", "action": "a"}),
        requests.get(s0.url + "/v1/users/nothex"),
        requests.get(s0.url + "/v1/users/" + "ab" * 20),
        requests.get(s0.url + "/v1/blocks/999"),
        requests.get(s0.url + "/v1/events", params={"kind": "Nonsense"}),
        requests.get(s0.url + "/v1/events", params={"from_height": "x"}),
        requests.get(s0.url + "/v1/whatever"),
    ]
    expected_status = [400, 400, 422, 404, 400, 400, 400, 404, 404, 400, 400, 404]
    for resp, status in zip(cases, expected_status):
        assert resp.status_code == status, resp.url
        body = resp.json()
        assert set(body) == {"code", "message"}
        assert body["code"] in API_ERROR_CODES


def test_bad_signature_code_is_bad_signature(cluster, txf):
    s0, _ = cluster
    tx = txf.register("bob", "acme", "member")
    doc = json.loads(json.dumps(tx.to_dict()))
    doc["signature"] = "11" * 64
    resp = requests.post(s0.url + "/v1/transactions", data=json.dumps(doc), timeout=30)
    assert resp.status_code == 422
    assert resp.json()["code"] == "BadSignature"


def _signed_doc(wallet, nonce: int, payload: dict) -> dict:
    """A wire transaction over *payload*, signed by *wallet*, that skips the payload's checks."""
    body = {"nonce": nonce, "payload": payload, "sender": wallet.address}
    signature = keys.sign(decrypt_signing_key(wallet, PASSPHRASE), codec.canonical_bytes(body))
    return {**body, "public_key": wallet.public_key, "signature": signature.hex()}


def test_signed_register_with_a_list_org_is_malformed_and_later_writes_commit(
    cluster, txf, wallets
):
    s0, _ = cluster
    payload = {**txf.register("bob", "acme", "member").payload.to_dict(), "org": ["acme"]}
    doc = _signed_doc(wallets["bob"], 0, payload)
    resp = requests.post(s0.url + "/v1/transactions", data=json.dumps(doc), timeout=30)
    assert resp.status_code == 400 and resp.json()["code"] == "Malformed"
    resp = _post_tx(s0, txf.register("alice", "acme", "member"))
    assert resp.status_code == 202 and resp.json()["committed_height"] == 1


def test_lone_surrogate_org_is_malformed_and_later_writes_commit(cluster, txf):
    s0, _ = cluster
    doc = txf.register("bob", "acme", "member").to_dict()
    doc["payload"]["org"] = "\ud800"
    resp = requests.post(s0.url + "/v1/transactions", data=json.dumps(doc), timeout=30)
    assert resp.status_code == 400 and resp.json()["code"] == "Malformed"
    resp = _post_tx(s0, txf.register("alice", "acme", "member"))
    assert resp.status_code == 202 and resp.json()["committed_height"] == 1


def test_an_extra_field_a_repeated_key_or_nan_is_malformed_and_the_plain_body_commits(
    cluster, txf
):
    """Only the one document a tx encodes to is that tx: each variant of the plain body is
    refused, where keeping the known fields or the last repeated key would give its tx id."""
    s0, _ = cluster
    doc = txf.register("alice", "acme", "member").to_dict()
    plain = json.dumps(doc)
    for body in (
        json.dumps({**doc, "memo": "extra"}),
        '{"nonce": 5, ' + plain[1:],
        json.dumps({**doc, "nonce": float("nan")}),
    ):
        resp = requests.post(s0.url + "/v1/transactions", data=body, timeout=30)
        assert resp.status_code == 400 and resp.json()["code"] == "Malformed", body
    resp = requests.post(s0.url + "/v1/transactions", data=plain, timeout=30)
    assert resp.status_code == 202 and resp.json()["committed_height"] == 1


def test_a_boolean_nonce_is_malformed_and_later_writes_commit(cluster, txf, wallets):
    s0, _ = cluster
    payload = txf.register("bob", "acme", "member").payload.to_dict()
    doc = _signed_doc(wallets["bob"], True, payload)
    resp = requests.post(s0.url + "/v1/transactions", data=json.dumps(doc), timeout=30)
    assert resp.status_code == 400 and resp.json()["code"] == "Malformed"
    assert "nonce" in resp.json()["message"]
    resp = _post_tx(s0, txf.register("alice", "acme", "member"))
    assert resp.status_code == 202 and resp.json()["committed_height"] == 1


def test_a_resource_longer_than_an_id_is_malformed(cluster, wallets):
    s0, _ = cluster
    params = {"user": wallets["alice"].address, "org": "acme", "resource": "r" * 65, "action": "read"}
    resp = requests.get(s0.url + "/v1/permissions/check", params=params, timeout=30)
    assert resp.status_code == 400 and resp.json()["code"] == "Malformed"
    assert "permission resource" in resp.json()["message"]


def test_a_role_update_to_the_role_it_replaces_is_malformed(cluster, txf, wallets):
    s0, _ = cluster
    payload = {**txf.update("admin_acme", "alice", "acme", "member", "auditor").payload.to_dict(),
               "new_role": "member"}
    doc = _signed_doc(wallets["admin_acme"], 0, payload)
    resp = requests.post(s0.url + "/v1/transactions", data=json.dumps(doc), timeout=30)
    assert resp.status_code == 400 and resp.json()["code"] == "Malformed"
    assert "old_role and new_role must differ" in resp.json()["message"]


def test_float_org_is_malformed(cluster, txf):
    s0, _ = cluster
    doc = txf.register("bob", "acme", "member").to_dict()
    doc["payload"]["org"] = 1.5
    resp = requests.post(s0.url + "/v1/transactions", data=json.dumps(doc), timeout=30)
    assert resp.status_code == 400 and resp.json()["code"] == "Malformed"


@pytest.mark.parametrize("body", [
    "[" * 990 + "]" * 990,  # too deep to parse
    '{"a":' * 600 + "0" + "}" * 600,  # parses, but may be too deep for the encoder's walk
], ids=["parse", "walk"])
def test_a_body_nested_too_deep_is_malformed_and_the_connection_still_answers(cluster, body):
    s0, _ = cluster
    conn = http.client.HTTPConnection("127.0.0.1", s0.port, timeout=10)
    try:
        conn.request("POST", "/v1/transactions", body=body)
        resp = conn.getresponse()
        assert resp.status == 400 and json.loads(resp.read())["code"] == "Malformed"
        conn.request("GET", "/v1/status")
        resp = conn.getresponse()
        assert resp.status == 200 and json.loads(resp.read())["height"] == 0
    finally:
        conn.close()


@pytest.mark.parametrize("path", ["/v1/blocks/x", "/v1/users/{addr}/roles/extra", "/v1/nope"])
def test_unknown_get_path_is_not_found(cluster, wallets, path):
    route = path.format(addr=wallets["alice"].address)
    resp = requests.get(cluster[0].url + route, timeout=30)
    assert resp.status_code == 404
    assert resp.json() == {"code": "NotFound", "message": f"no such endpoint {route}"}


@pytest.mark.parametrize("addr", ["AB" * 20, "ab" * 19, "ab" * 21])
@pytest.mark.parametrize("route", [
    "/v1/accounts/{addr}", "/v1/users/{addr}", "/v1/users/{addr}/roles",
    "/v1/permissions/check?user={addr}&org=acme&resource=ledger&action=read",
])
def test_an_address_that_is_not_40_lowercase_hex_is_malformed(cluster, route, addr):
    resp = requests.get(cluster[0].url + route.format(addr=addr), timeout=30)
    assert resp.status_code == 400 and resp.json()["code"] == "Malformed"


def test_a_block_height_too_long_for_int_is_not_found_and_the_server_still_answers(cluster):
    s0, _ = cluster
    resp = requests.get(s0.url + "/v1/blocks/" + "9" * 5000, timeout=30)
    assert resp.status_code == 404 and resp.json()["code"] == "NotFound"
    assert requests.get(s0.url + "/v1/status", timeout=30).status_code == 200


def _raw_post(sock, headers: str) -> tuple[http.client.HTTPResponse, dict]:
    """Send a POST head (and no body) on *sock*; parse the one reply."""
    sock.sendall(f"POST /v1/transactions HTTP/1.1\r\nHost: x\r\n{headers}\r\n".encode())
    resp = http.client.HTTPResponse(sock)
    resp.begin()
    return resp, json.loads(resp.read())


def _raw_status(sock) -> dict:
    sock.sendall(b"GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n")
    resp = http.client.HTTPResponse(sock)
    resp.begin()
    assert resp.status == 200
    return json.loads(resp.read())


@pytest.mark.parametrize("headers, status", [
    ("Content-Length: -1\r\n", 400),
    ("Content-Length: 12abc\r\n", 400),
    ("Content-Length: 1_0\r\n", 400),
    ("Content-Length: 0x10\r\n", 400),
    ("Content-Length: " + "9" * 5000 + "\r\n", 400),
    (f"Content-Length: {MAX_BODY_BYTES + 1}\r\n", 413),
])
def test_unframed_or_oversized_body_is_refused_and_closes(cluster, headers, status):
    s0, _ = cluster
    with socket.create_connection(("127.0.0.1", s0.port), timeout=10) as sock:
        resp, body = _raw_post(sock, headers)
        assert resp.status == status and body["code"] == "Malformed"
        assert resp.getheader("Connection") == "close"
        assert sock.recv(1) == b""  # the handler let go of the connection
    with socket.create_connection(("127.0.0.1", s0.port), timeout=10) as sock:
        assert _raw_status(sock)["height"] == 0


@pytest.mark.parametrize("headers", ["", "Content-Length: 0 \t\r\n"])
def test_framed_bad_post_is_refused_and_the_connection_still_answers(cluster, headers):
    """No length (an empty body) or one with trailing whitespace keeps the framing."""
    s0, _ = cluster
    with socket.create_connection(("127.0.0.1", s0.port), timeout=10) as sock:
        resp, body = _raw_post(sock, headers)
        assert resp.status == 400 and body["code"] == "Malformed"
        assert resp.getheader("Connection") is None
        assert _raw_status(sock)["height"] == 0


@pytest.mark.parametrize("sent", [
    b"",
    b"POST /v1/transactions HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"{" * 10,
], ids=["idle", "partial body"])
def test_a_stalled_request_is_disconnected_after_the_timeout(cluster, monkeypatch, sent):
    """A client that sends nothing, or only part of the body it framed, loses the connection."""
    s0, _ = cluster
    assert api._Handler.timeout == api.REQUEST_TIMEOUT_S  # not the stdlib's None: no timeout
    monkeypatch.setattr(api._Handler, "timeout", 0.5)
    with socket.create_connection(("127.0.0.1", s0.port), timeout=10) as sock:
        sock.sendall(sent)
        start = time.monotonic()
        assert sock.recv(1) == b""  # closed, with no reply
        assert time.monotonic() - start < 5
    with socket.create_connection(("127.0.0.1", s0.port), timeout=10) as sock:
        assert _raw_status(sock)["height"] == 0


def test_keep_alive_connection_serves_two_requests(cluster, monkeypatch):
    s0, _ = cluster
    seen, nodelay, sends = [], [], []
    do_get = api._Handler.do_GET

    def recording_do_get(handler):
        seen.append(handler.connection)
        nodelay.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        return do_get(handler)

    def recording(send):
        def recorded(sock, data, *args):
            sends.append((sock, len(data)))  # before the bytes leave, so before the reply lands
            return send(sock, data, *args)
        return recorded

    monkeypatch.setattr(api._Handler, "do_GET", recording_do_get)
    for name in ("send", "sendall"):
        monkeypatch.setattr(socket.socket, name, recording(getattr(socket.socket, name)))
    conn = http.client.HTTPConnection("127.0.0.1", s0.port, timeout=10)
    try:
        for _ in range(2):
            conn.request("GET", "/v1/status")
            resp = conn.getresponse()
            assert resp.status == 200 and json.loads(resp.read())["height"] == 0
    finally:
        conn.close()
    assert len(seen) == 2 and seen[0] is seen[1]  # one connection served both
    assert all(nodelay)  # a reply does not wait for the client's delayed ACK
    # Headers and body of each reply leave in one send.
    assert len([n for sock, n in sends if sock is seen[0]]) == 2


def test_submit_builds_no_consensus_report(cluster, txf, monkeypatch):
    def no_report(network):
        raise AssertionError("a write must not build a consensus report")

    monkeypatch.setattr(consensus, "report", no_report)
    s0, _ = cluster
    for height, tx in enumerate(
        [txf.register("alice", "acme", "member"), txf.register("bob", "acme", "member")], 1
    ):
        resp = _post_tx(s0, tx)
        assert resp.status_code == 202
        assert resp.json()["committed_height"] == height


def test_submit_out_of_pump_budget_is_accepted_uncommitted(
    genesis_file, genesis_state, txf, monkeypatch
):
    monkeypatch.setattr(api, "PUMP_TICKS", 1)
    vals = list(genesis_file.validators)
    network = Network(NetworkConfig(validators=vals, rng_seed=77), genesis_state)
    handle = NodeHandle(network, vals[0], chain_id="testnet")
    result = handle.submit(txf.register("alice", "acme", "member"))
    assert result["accepted"] and result["committed_height"] is None
    assert result["node_height"] == 0


def test_committed_height_counts_only_this_pump_on_this_replica(genesis_file, genesis_state, txf):
    vals = list(genesis_file.validators)
    network = Network(NetworkConfig(validators=vals, rng_seed=77), genesis_state)
    handle = NodeHandle(network, vals[0], chain_id="testnet")
    tx = txf.register("alice", "acme", "member")
    assert handle.submit(tx)["committed_height"] == 1
    # The same tx again is accepted, but it was committed before this pump.
    again = handle.submit(tx)
    assert again["accepted"] and again["committed_height"] is None
    assert again["node_height"] == 1

    # A replica that is down commits nothing, though its peers commit the tx.
    crashed = Network(
        NetworkConfig(validators=vals, rng_seed=77,
                      crash_rules=[consensus.CrashRule(node=0, from_tick=0)]),
        genesis_state,
    )
    lagging = NodeHandle(crashed, vals[0], chain_id="testnet")
    result = lagging.submit(tx)
    assert result["accepted"] and result["committed_height"] is None
    assert crashed.tx_heights == {tx.tx_id: 1} and result["node_height"] == 0


def test_service_config_env_overrides(tmp_path):
    path = tmp_path / "svc.json"
    path.write_text(json.dumps({"listen": "127.0.0.1:1", "data_dir": str(tmp_path)}), "utf-8")
    cfg = ServiceConfig.load(path, env={"ROLECHAIN_LISTEN": "127.0.0.1:2"})
    assert cfg.listen == "127.0.0.1:2"
    assert cfg.data_dir == str(tmp_path)


@pytest.mark.parametrize("key, value", [
    ("listen", 8545), ("data_dir", 5), ("node_key", 7), ("genesis", None),
])
def test_service_config_refuses_a_value_that_is_not_a_string(tmp_path, key, value):
    path = tmp_path / "svc.json"
    path.write_text(json.dumps({key: value}), "utf-8")
    with pytest.raises(ValueError, match=f"'{key}' must be a string"):
        ServiceConfig.load(path, env={})


def test_handles_on_one_network_share_its_lock(genesis_file, genesis_state):
    vals = list(genesis_file.validators)
    network = Network(NetworkConfig(validators=vals, rng_seed=77), genesis_state)
    handles = [NodeHandle(network, v, chain_id="testnet") for v in vals[:2]]
    done = []
    with network.lock:
        readers = [threading.Thread(target=lambda h=h: done.append(h.snapshot())) for h in handles]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=0.2)
        assert done == []  # both wait for the one lock
    for reader in readers:
        reader.join(timeout=5)
    assert len(done) == 2


def test_a_handle_refuses_a_stored_chain_it_has_not_read(tmp_path, genesis_file, genesis_state):
    path = tmp_path / "chain.jsonl"
    Store(path).append(genesis_block(genesis_state))
    before = path.read_bytes()
    vals = list(genesis_file.validators)
    network = Network(NetworkConfig(validators=vals, rng_seed=77), genesis_state)
    with pytest.raises(ValueError, match="not read"):
        NodeHandle(network, vals[0], chain_id="testnet", store=Store(path))
    assert path.read_bytes() == before


def test_build_node_service_boots_and_persists(tmp_path, genesis_file, genesis_state, wallets, txf):
    data_dir = tmp_path / "node0"
    data_dir.mkdir()
    save_genesis(genesis_file, tmp_path / "genesis.json")
    save_wallet(wallets["v0"], tmp_path / "node_key.json")
    cfg = ServiceConfig(
        listen="127.0.0.1:0",
        data_dir=str(data_dir),
        genesis=str(tmp_path / "genesis.json"),
        node_key=str(tmp_path / "node_key.json"),
    )
    server = build_node_service(cfg).start()
    try:
        resp = _post_tx(server, txf.register("dave", "globex", "member"))
        assert resp.status_code == 202 and resp.json()["committed_height"] == 1
    finally:
        server.stop()

    # reboot from disk: the committed block must still be there
    server2 = build_node_service(cfg).start()
    try:
        status = requests.get(server2.url + "/v1/status").json()
        assert status["height"] == 1
        user = requests.get(server2.url + f"/v1/users/{wallets['dave'].address}")
        assert user.status_code == 200
        resp = _post_tx(server2, txf.grant("admin_globex", "globex", "member", "api", "exec"))
        assert resp.json()["committed_height"] == 2
    finally:
        server2.stop()

    # a third boot proves reboots never duplicate or corrupt the stored chain
    server3 = build_node_service(cfg)
    assert server3.handle.node.next_height - 1 == 2
    server3.stop()


def test_build_node_service_refuses_a_stored_genesis_of_another_timestamp(
    tmp_path, genesis_file, genesis_state, wallets, txf
):
    # A chain consistent in itself, but grown from a genesis block stamped
    # with tick 5 instead of the genesis file's block at tick 0.
    genesis = genesis_block(genesis_state)
    genesis = dataclasses.replace(genesis, header=dataclasses.replace(genesis.header, timestamp=5))
    block = build_block(
        genesis.header, [txf.register("carol", "acme", "member", nonce=0)],
        genesis_state, wallets["v0"].address, tick=6,
    )
    chain = Chain(blocks=(genesis, block))
    assert verify_chain(chain, genesis_state).height == 0
    data_dir = tmp_path / "node0"
    data_dir.mkdir()
    store = Store(chain_path(data_dir))
    for b in chain.blocks:
        store.append(b)
    save_genesis(genesis_file, tmp_path / "genesis.json")
    save_wallet(wallets["v0"], tmp_path / "node_key.json")
    cfg = ServiceConfig(
        listen="127.0.0.1:0",
        data_dir=str(data_dir),
        genesis=str(tmp_path / "genesis.json"),
        node_key=str(tmp_path / "node_key.json"),
    )
    with pytest.raises(ValueError, match="genesis"):
        build_node_service(cfg)
