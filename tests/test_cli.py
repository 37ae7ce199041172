import dataclasses
import hashlib
import io
import json
import os
import socket
import subprocess
import sys
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

from rolechain import codec
from rolechain.api import SHUTDOWN_POLL_S, NodeHandle, _Handler
from rolechain.cli import main
from rolechain.consensus import Network, NetworkConfig
from rolechain.ledger import Block, Chain, build_block, genesis_block, verify_chain
from rolechain.scenario import load_scenario
from rolechain.store import Store, save_genesis
from rolechain.wallet import load_wallet, save_wallet

from conftest import PASSPHRASE, make_chain
from test_scenario import BASE


class RecordingServer:
    """Real node API plus a capture of every byte the client sends."""

    def __init__(self, handle: NodeHandle):
        captured: list[bytes] = []

        class Handler(_Handler):
            def do_GET(self):  # noqa: N802
                captured.append(self.requestline.encode() + bytes(self.headers))
                super().do_GET()

            def do_POST(self):  # noqa: N802
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length)
                captured.append(self.requestline.encode() + bytes(self.headers) + body)
                self.rfile = io.BytesIO(body)
                super().do_POST()

        self.captured = captured
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.node_handle = handle
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": SHUTDOWN_POLL_S},
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self):
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self):
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def node_server(genesis_file, genesis_state):
    vals = list(genesis_file.validators)
    network = Network(NetworkConfig(validators=vals, rng_seed=31), genesis_state)
    server = RecordingServer(NodeHandle(network, vals[0], chain_id="testnet"))
    yield server
    server.stop()


@pytest.fixture
def runner():
    return CliRunner()


def _env(tmp_path, wallet="wallet.json"):
    return {
        "ROLECHAIN_PASSPHRASE": PASSPHRASE,
        "ROLECHAIN_CONFIG": str(tmp_path / "no-such-config.json"),
    }


def _base_args(server, wallet_path):
    return ["--node", server.url, "--wallet", str(wallet_path), "--output", "json"]


def test_wallet_create_is_deterministic_for_a_seed(runner, tmp_path):
    seed = "ab" * 32
    out = []
    for name in ("a.json", "b.json"):
        result = runner.invoke(main, [
            "--output", "json", "wallet", "create",
            "--seed-hex", seed, "--path", str(tmp_path / name),
        ], env=_env(tmp_path))
        assert result.exit_code == 0, result.output
        out.append(json.loads(result.output))
    assert out[0]["address"] == out[1]["address"]
    assert load_wallet(tmp_path / "a.json").address == out[0]["address"]


def test_wallet_create_refuses_overwrite(runner, tmp_path):
    args = ["wallet", "create", "--seed-hex", "cd" * 32, "--path", str(tmp_path / "w.json")]
    assert runner.invoke(main, args, env=_env(tmp_path)).exit_code == 0
    result = runner.invoke(main, args, env=_env(tmp_path))
    assert result.exit_code == 2


def test_wallet_show(runner, tmp_path, wallets):
    path = tmp_path / "alice.json"
    save_wallet(wallets["alice"], path)
    result = runner.invoke(main, ["--output", "json", "wallet", "show", "--path", str(path)],
                           env=_env(tmp_path))
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc == {"address": wallets["alice"].address, "public_key": wallets["alice"].public_key}


def test_full_lifecycle_and_secret_free_traffic(runner, tmp_path, node_server, wallets):
    alice_path = tmp_path / "alice.json"
    admin_path = tmp_path / "admin.json"
    save_wallet(wallets["alice"], alice_path)
    save_wallet(wallets["admin_acme"], admin_path)
    env = _env(tmp_path)

    r = runner.invoke(main, _base_args(node_server, alice_path) + [
        "user", "register", "--org", "acme", "--role", "member",
    ], env=env)
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["committed_height"] == 1

    r = runner.invoke(main, _base_args(node_server, admin_path) + [
        "role", "update", "--user", wallets["alice"].address, "--org", "acme",
        "--old-role", "member", "--new-role", "auditor",
    ], env=env)
    assert r.exit_code == 0, r.output

    r = runner.invoke(main, _base_args(node_server, admin_path) + [
        "perm", "grant", "--org", "acme", "--role", "auditor",
        "--resource", "ledger", "--action", "read",
    ], env=env)
    assert r.exit_code == 0, r.output

    r = runner.invoke(main, _base_args(node_server, admin_path) + [
        "perm", "check", "--user", wallets["alice"].address, "--org", "acme",
        "--resource", "ledger", "--action", "read",
    ], env=env)
    assert r.exit_code == 0
    check = json.loads(r.output)
    assert check["granted"] and check["via_roles"] == ["auditor"]

    r = runner.invoke(main, _base_args(node_server, admin_path) + [
        "perm", "revoke", "--org", "acme", "--role", "auditor",
        "--resource", "ledger", "--action", "read",
    ], env=env)
    assert r.exit_code == 0

    r = runner.invoke(main, _base_args(node_server, admin_path) + [
        "perm", "check", "--user", wallets["alice"].address, "--org", "acme",
        "--resource", "ledger", "--action", "read",
    ], env=env)
    assert not json.loads(r.output)["granted"]

    r = runner.invoke(main, _base_args(node_server, admin_path) + ["events", "tail"], env=env)
    assert r.exit_code == 0
    kinds = [json.loads(line)["kind"] for line in r.output.strip().splitlines()]
    assert kinds == [
        "UserRegistered", "UserRoleUpdated", "PermissionGranted", "PermissionRevoked",
    ]

    # nothing secret ever crossed the wire
    capture = b"".join(node_server.captured)
    assert capture, "no traffic captured"
    for wallet in (wallets["alice"], wallets["admin_acme"]):
        import hashlib

        seed = hashlib.sha256(b"rolechain-test-wallet:" + b"alice").digest()
        assert PASSPHRASE.encode() not in capture
        assert seed not in capture and seed.hex().encode() not in capture
        assert wallet.enc_private_key.encode() not in capture


def test_events_tail_human_format(runner, tmp_path, node_server, wallets):
    alice_path = tmp_path / "alice.json"
    save_wallet(wallets["alice"], alice_path)
    env = _env(tmp_path)
    runner.invoke(main, _base_args(node_server, alice_path) + [
        "user", "register", "--org", "acme", "--role", "member",
    ], env=env)
    r = runner.invoke(main, ["--node", node_server.url, "events", "tail"], env=env)
    assert r.exit_code == 0
    assert "UserRegistered" in r.output and "[1/0]" in r.output


def test_api_error_exit_code(runner, tmp_path, node_server, wallets):
    alice_path = tmp_path / "alice.json"
    save_wallet(wallets["alice"], alice_path)
    env = _env(tmp_path)
    # registering a role that needs an admin: NotEligible -> the block builder
    # rejects the tx; the CLI must exit 3 with the API error surfaced
    r = runner.invoke(main, _base_args(node_server, alice_path) + [
        "user", "register", "--org", "acme", "--role", "auditor",
    ], env=env)
    assert r.exit_code == 0  # accepted (statically valid), committed nothing
    assert json.loads(r.output)["committed_height"] is None

    r = runner.invoke(main, _base_args(node_server, alice_path) + [
        "perm", "check", "--user", "not-an-address", "--org", "acme",
        "--resource", "ledger", "--action", "read",
    ], env=env)
    assert r.exit_code == 3


def test_an_unreachable_node_exits_3_with_one_error_line(runner, tmp_path, wallets):
    with socket.socket() as sock:  # a loopback port nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    r = runner.invoke(main, [
        "--node", f"http://127.0.0.1:{port}", "perm", "check", "--user", wallets["alice"].address,
        "--org", "acme", "--resource", "ledger", "--action", "read",
    ], env=_env(tmp_path))
    assert r.exit_code == 3
    assert r.stderr.startswith(f"error: cannot reach node at http://127.0.0.1:{port}: ")
    assert len(r.stderr.splitlines()) == 1


def test_the_cli_module_does_not_load_the_http_client():
    """`node serve` imports this module; only the client commands need `requests`."""
    code = "import rolechain.cli, sys; assert 'requests' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"),
    ]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_usage_error_exit_code(runner, tmp_path):
    result = runner.invoke(main, ["perm", "check", "--org", "acme"], env=_env(tmp_path))
    assert result.exit_code == 2


def test_sim_run_and_chain_verify_round_trip(runner, tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(BASE), "utf-8")
    report_path = tmp_path / "report.json"
    dump_path = tmp_path / "chain.jsonl"
    genesis_path = tmp_path / "genesis.json"
    save_genesis(load_scenario(BASE).genesis, genesis_path)

    r = runner.invoke(main, [
        "--output", "json", "sim", "run", str(scenario_path),
        "--report", str(report_path), "--dump-chain", str(dump_path),
    ], env=_env(tmp_path))
    assert r.exit_code == 0, r.output
    report = json.loads(report_path.read_text("utf-8"))
    assert report["quiescent"]
    assert json.loads(r.output)["trace_digest"] == report["trace_digest"]

    r = runner.invoke(main, [
        "chain", "verify", str(dump_path), "--genesis", str(genesis_path),
    ], env=_env(tmp_path))
    assert r.exit_code == 0, r.output

    # flip one byte inside a middle line: the CLI must fail with the height
    raw = bytearray(dump_path.read_bytes())
    lines = bytes(raw).split(b"\n")
    target = lines[2]
    pos = target.index(b'"sender"') if b'"sender"' in target else 30
    lines[2] = target[:pos + 12] + bytes([target[pos + 12] ^ 1]) + target[pos + 13:]
    dump_path.write_bytes(b"\n".join(lines))
    r = runner.invoke(main, [
        "--output", "json", "chain", "verify", str(dump_path), "--genesis", str(genesis_path),
    ], env=_env(tmp_path))
    assert r.exit_code == 4
    failure = json.loads(r.output)
    assert failure["ok"] is False and failure["height"] <= 2


def test_sim_run_dump_chain_bytes_are_pinned(runner, tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(BASE), "utf-8")
    dump_path = tmp_path / "chain.jsonl"
    for _ in range(2):  # the second run replaces the first dump
        r = runner.invoke(main, ["sim", "run", str(scenario_path), "--dump-chain", str(dump_path)],
                          env=_env(tmp_path))
        assert r.exit_code == 0, r.output
        raw = dump_path.read_bytes()
        assert raw.count(b"\n") == 4
        assert hashlib.sha256(raw).hexdigest() == (
            "979a201ce3fde04ad060eee55aaae38b8e0813121d1c35b74ec5b5a58286a847"
        )


def test_input_nested_too_deep_gets_the_answer_malformed_input_gets(
    runner, tmp_path, genesis_file, genesis_state, txf, wallets
):
    """A store line is a failed height (exit 4); a genesis file is bad input (exit 3)."""
    chain = make_chain(genesis_state, [txf.register("alice", "acme", "member")],
                       proposer=wallets["v0"].address, per_block=1)
    chain_file, genesis_path = tmp_path / "chain.jsonl", tmp_path / "genesis.json"
    store = Store(chain_file)
    for block in chain.blocks:
        store.append(block)
    save_genesis(genesis_file, genesis_path)
    nested = b"[" * 5000 + b"]" * 5000
    first, rest = chain_file.read_bytes().split(b"\n", 1)
    chain_file.write_bytes(first + b"\n" + nested + b"\n" + rest)
    r = runner.invoke(main, ["chain", "verify", str(chain_file), "--genesis", str(genesis_path)],
                      env=_env(tmp_path))
    assert r.exit_code == 4, (r.output, r.exception)
    assert r.stdout.startswith("FAILED at height 1") and "Traceback" not in r.output

    nested_genesis = tmp_path / "nested-genesis.json"
    nested_genesis.write_bytes(nested)
    r = runner.invoke(main, ["chain", "verify", str(chain_file), "--genesis", str(nested_genesis)],
                      env=_env(tmp_path))
    assert r.exit_code == 3, (r.output, r.exception)
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr


def test_chain_verify_with_tip_anchor(runner, tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(BASE), "utf-8")
    dump_path = tmp_path / "chain.jsonl"
    genesis_path = tmp_path / "genesis.json"
    save_genesis(load_scenario(BASE).genesis, genesis_path)
    runner.invoke(main, ["sim", "run", str(scenario_path), "--dump-chain", str(dump_path)],
                  env=_env(tmp_path))
    r = runner.invoke(main, [
        "chain", "verify", str(dump_path), "--genesis", str(genesis_path),
        "--tip", "ff" * 32,
    ], env=_env(tmp_path))
    assert r.exit_code == 4
    assert "anchor" in r.output


def _verify_stored(runner, tmp_path, genesis_file, blocks) -> dict:
    """``chain verify`` over *blocks* written through ``Store.append`` (valid CRCs)."""
    chain_file, genesis_path = tmp_path / "chain.jsonl", tmp_path / "genesis.json"
    chain_file.unlink(missing_ok=True)
    store = Store(chain_file)
    for block in blocks:
        store.append(block)
    save_genesis(genesis_file, genesis_path)
    r = runner.invoke(main, [
        "--output", "json", "chain", "verify", str(chain_file), "--genesis", str(genesis_path),
    ], env=_env(tmp_path))
    assert r.exit_code == (0 if json.loads(r.output)["ok"] else 4), r.output
    return json.loads(r.output)


def test_chain_verify_and_verify_chain_agree_on_every_parseable_byte_mutation(
    runner, tmp_path, monkeypatch, genesis_file, genesis_state, txf, wallets
):
    """Mutate each byte of each stored block once; the file and in-memory verdicts match.

    Hex digits step to the next hex digit, so hashes, keys and signatures
    still parse; any other byte flips its low bit.
    """
    monkeypatch.setattr(os, "fsync", lambda fd: None)  # durability is not under test
    txs = [txf.register("alice", "acme", "member"), txf.register("bob", "globex", "member")]
    chain = make_chain(genesis_state, txs, proposer=wallets["v0"].address, per_block=1)
    hexdigits = b"0123456789abcdef"
    checked = 0
    for i, block in enumerate(chain.blocks):
        raw = codec.canonical_bytes(block.to_dict())
        for pos, byte in enumerate(raw):
            new = hexdigits[(hexdigits.index(byte) + 1) % 16] if byte in hexdigits else byte ^ 1
            try:
                mutated = Block.from_dict(json.loads(raw[:pos] + bytes([new]) + raw[pos + 1:]))
                codec.canonical_bytes(mutated.to_dict())
            except (ValueError, KeyError, TypeError):
                continue
            blocks = (*chain.blocks[:i], mutated, *chain.blocks[i + 1:])
            failure = verify_chain(Chain(blocks=blocks), genesis_state)
            expected = (True, chain.height) if failure is None else (False, failure.height)
            result = _verify_stored(runner, tmp_path, genesis_file, blocks)
            assert (result["ok"], result["height"]) == expected, (i, pos, result)
            checked += 1
    assert checked > 500


def test_chain_verify_refuses_a_genesis_stamped_with_another_tick(
    runner, tmp_path, genesis_file, genesis_state, txf, wallets
):
    genesis = genesis_block(genesis_state)
    genesis = dataclasses.replace(genesis, header=dataclasses.replace(genesis.header, timestamp=5))
    block = build_block(
        genesis.header, [txf.register("carol", "acme", "member")],
        genesis_state, wallets["v0"].address, tick=6,
    )
    result = _verify_stored(runner, tmp_path, genesis_file, (genesis, block))
    assert (result["ok"], result["height"]) == (False, 0)


@pytest.mark.parametrize("damage", ["cut into the last line", "bad crc on the last line"])
def test_chain_verify_leaves_a_torn_store_as_it_found_it(
    runner, tmp_path, genesis_file, genesis_state, txf, wallets, damage
):
    """A torn final line is left out of the verdict, and the audited file is never written."""
    txs = [txf.register("alice", "acme", "member"), txf.register("bob", "globex", "member")]
    chain = make_chain(genesis_state, txs, proposer=wallets["v0"].address, per_block=1)
    chain_file, genesis_path = tmp_path / "chain.jsonl", tmp_path / "genesis.json"
    store = Store(chain_file)
    for block in chain.blocks:
        store.append(block)
    save_genesis(genesis_file, genesis_path)
    raw = chain_file.read_bytes()
    if damage == "cut into the last line":
        raw = raw[:-17]
    else:
        *lines, last, _ = raw.split(b"\n")
        doc = json.loads(last)
        doc["crc32"] = f"{int(doc['crc32'], 16) ^ 1:08x}"
        raw = b"\n".join([*lines, codec.canonical_bytes(doc), b""])
    chain_file.write_bytes(raw)
    os.utime(chain_file, ns=(1_000_000_000, 1_000_000_000))  # any write would move it

    for output, verdict in (("json", {"ok": True, "height": 1, "blocks": 2}),
                            ("human", "OK: 2 blocks, tip height 1")):
        r = runner.invoke(main, [
            "--output", output, "chain", "verify", str(chain_file), "--genesis", str(genesis_path),
        ], env=_env(tmp_path))
        assert r.exit_code == 0, r.output
        assert (json.loads(r.stdout) if output == "json" else r.stdout.strip()) == verdict
        assert chain_file.read_bytes() == raw
        assert chain_file.stat().st_mtime_ns == 1_000_000_000


def test_cli_config_file_supplies_defaults(runner, tmp_path, node_server, wallets):
    save_wallet(wallets["carol"], tmp_path / "carol.json")
    cfg = tmp_path / "cli.json"
    cfg.write_text(json.dumps({
        "node_url": node_server.url,
        "wallet_path": str(tmp_path / "carol.json"),
        "output": "json",
    }), "utf-8")
    env = {"ROLECHAIN_PASSPHRASE": PASSPHRASE, "ROLECHAIN_CONFIG": str(cfg)}
    r = runner.invoke(main, ["user", "register", "--org", "globex", "--role", "member"], env=env)
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["accepted"] is True

    # flags still win over the config file
    r = runner.invoke(main, ["--output", "human", "events", "tail"], env=env)
    assert r.exit_code == 0
    assert "UserRegistered" in r.output and not r.output.strip().startswith("{")


def test_node_serve_with_unusable_config_exits_3(runner, tmp_path):
    cfg = tmp_path / "svc.json"
    cfg.write_text(json.dumps({
        "listen": "127.0.0.1:0", "data_dir": str(tmp_path),
        "genesis": str(tmp_path / "missing-genesis.json"),
        "node_key": str(tmp_path / "missing-key.json"),
    }), "utf-8")
    r = runner.invoke(main, ["node", "serve", "--config", str(cfg)], env=_env(tmp_path))
    assert r.exit_code == 3


def test_json_output_round_trips(runner, tmp_path, node_server, wallets):
    save_wallet(wallets["bob"], tmp_path / "bob.json")
    env = _env(tmp_path)
    r = runner.invoke(main, _base_args(node_server, tmp_path / "bob.json") + [
        "user", "register", "--org", "globex", "--role", "member",
    ], env=env)
    doc = json.loads(r.output)
    assert {"accepted", "tx_id", "committed_height", "node_height"} <= set(doc)


# Scenario seeds that are not an exact int, by the name of their kind.
_BAD_SEEDS = {"list": [1], "float": 2.5, "str": "7", "bool": True}


@pytest.fixture
def probe_files(tmp_path, genesis_file, genesis_state, wallets):
    """Inputs that do not decode, next to the valid files they are made from."""
    files = {}

    def write(name, doc, raw=None):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc) if raw is None else raw, "utf-8")
        files[name] = str(path)

    genesis = genesis_file.to_dict()
    write("genesis-no-chain-id", {k: v for k, v in genesis.items() if k != "chain_id"})
    write("genesis-list", [genesis])
    write("genesis-bad-validator", {**genesis, "validators": ["zz" * 20]})
    write("genesis-dup-validator", {**genesis, "validators": genesis["validators"] * 2})
    write("genesis-dup-org", {**genesis, "orgs": genesis["orgs"] * 2})
    write("genesis", genesis)
    write("genesis-repeated-chain-id", None, raw='{"chain_id": "other", ' + json.dumps(genesis)[1:])
    for name, role, field, value in (
        ("genesis-float-max-holders", "contractor", "max_holders", 2.5),
        ("genesis-str-self-assignable", "auditor", "self_assignable", "false"),
        ("genesis-key-not-role-id", "member", "role_id", "owner"),
    ):
        doc = json.loads(json.dumps(genesis))
        doc["orgs"][0]["role_catalog"][role][field] = value
        write(name, doc)
    wallet = wallets["v0"].to_dict()
    write("wallet-no-key", {k: v for k, v in wallet.items() if k != "enc_private_key"})
    write("wallet-not-json", None, raw="{not json")
    write("wallet-str-iterations", {**wallet, "kdf_iterations": "10"})
    save_wallet(wallets["v0"], tmp_path / "wallet.json")
    files["wallet"] = str(tmp_path / "wallet.json")
    save_wallet(wallets["alice"], tmp_path / "alice.json")
    write("svc-key-not-validator", {
        "listen": "127.0.0.1:0", "data_dir": str(tmp_path / "data"),
        "genesis": files["genesis"], "node_key": str(tmp_path / "alice.json"),
    })
    for name in (
        "genesis-no-chain-id", "genesis-list", "genesis-float-max-holders",
        "genesis-key-not-role-id",
    ):
        write(f"svc-{name}", {
            "listen": "127.0.0.1:0", "data_dir": str(tmp_path / "data"),
            "genesis": files[name], "node_key": files["wallet"],
        })
    write("svc-list", [{"listen": "127.0.0.1:0"}])
    write("svc-data-dir-dashed", {"listen": "127.0.0.1:0", "data-dir": str(tmp_path / "data")})
    for key, value in (("listen", 8545), ("data_dir", 5), ("node_key", 7), ("genesis", None)):
        write(f"svc-{key}-not-str", {key: value})
    write("scenario-no-validators", {k: v for k, v in BASE.items() if k != "validators"})
    for name, edit in (
        ("float-max-holders", lambda sc: sc["orgs"][0]["role_catalog"]["member"].update(
            max_holders=2.5)),
        ("str-self-assignable", lambda sc: sc["orgs"][0]["role_catalog"]["auditor"].update(
            self_assignable="false")),
        ("float-max-ticks", lambda sc: sc.update(max_ticks=300.0)),
        ("float-tick", lambda sc: sc["workload"][0].update(tick=1.0)),
        ("float-org", lambda sc: sc["workload"][0].update(org=1.5)),
        ("crash-node-9", lambda sc: sc["network"].update(
            crash_rules=[{"node": 9, "from_tick": 0}])),
        ("crash-str-node", lambda sc: sc["network"].update(
            crash_rules=[{"node": "1", "from_tick": 0}])),
        ("crash-str-tick", lambda sc: sc["network"].update(
            crash_rules=[{"node": 1, "from_tick": "0"}])),
        *((f"rng-seed-{kind}", lambda sc, seed=seed: sc["network"].update(rng_seed=seed))
          for kind, seed in _BAD_SEEDS.items()),
    ):
        scenario = json.loads(json.dumps(BASE))
        edit(scenario)
        write(f"scenario-{name}", scenario)
    write("config-list", ["http://127.0.0.1:1"])
    write("config-node-url-dashed", {"node-url": "http://127.0.0.1:1"})
    for key, value in (("node_url", 5), ("wallet_path", 5), ("output", "xml")):
        write(f"config-{key}-{value}", {key: value})
    Store(tmp_path / "chain.jsonl").append(genesis_block(genesis_state))
    files["chain"] = str(tmp_path / "chain.jsonl")
    return files


# (argv with {file} placeholders, passphrase, exit code, text the error line holds)
_PROBES = {
    "verify-genesis-no-chain-id": (
        "chain verify {chain} --genesis {genesis-no-chain-id}", None, 3, "chain_id"),
    "verify-genesis-list": (
        "chain verify {chain} --genesis {genesis-list}", None, 3, "GenesisFile"),
    "verify-genesis-bad-validator": (
        "chain verify {chain} --genesis {genesis-bad-validator}", None, 3,
        "validator address"),
    "verify-genesis-float-max-holders": (
        "chain verify {chain} --genesis {genesis-float-max-holders}", None, 3, "max_holders"),
    "verify-genesis-str-self-assignable": (
        "chain verify {chain} --genesis {genesis-str-self-assignable}", None, 3,
        "self_assignable"),
    "verify-genesis-key-not-role-id": (
        "chain verify {chain} --genesis {genesis-key-not-role-id}", None, 3,
        "lists role 'owner' under key 'member'"),
    "serve-genesis-float-max-holders": (
        "node serve --config {svc-genesis-float-max-holders}", None, 3, "max_holders"),
    "serve-genesis-no-chain-id": (
        "node serve --config {svc-genesis-no-chain-id}", None, 3, "chain_id"),
    "serve-genesis-list": ("node serve --config {svc-genesis-list}", None, 3, "GenesisFile"),
    "serve-genesis-key-not-role-id": (
        "node serve --config {svc-genesis-key-not-role-id}", None, 3,
        "lists role 'owner' under key 'member'"),
    "serve-config-list": ("node serve --config {svc-list}", None, 3, "not a JSON object"),
    "serve-config-unknown-key": (
        "node serve --config {svc-data-dir-dashed}", None, 3, "unknown key 'data-dir'"),
    "verify-genesis-repeated-chain-id": (
        "chain verify {chain} --genesis {genesis-repeated-chain-id}", None, 3,
        "repeated key 'chain_id'"),
    "serve-key-not-validator": (
        "node serve --config {svc-key-not-validator}", None, 3, "is not a genesis validator"),
    "verify-genesis-dup-validator": (
        "chain verify {chain} --genesis {genesis-dup-validator}", None, 3,
        "duplicate validator addresses"),
    "verify-genesis-dup-org": (
        "chain verify {chain} --genesis {genesis-dup-org}", None, 3, "duplicate org 'acme'"),
    **{f"serve-{key}-not-str": (f"node serve --config {{svc-{key}-not-str}}", None, 3, repr(key))
       for key in ("listen", "data_dir", "node_key", "genesis")},
    "show-wallet-no-key": (
        "wallet show --path {wallet-no-key}", None, 3, "enc_private_key"),
    "register-wallet-no-key": (
        "--wallet {wallet-no-key} user register --org acme --role member --nonce 0",
        None, 3, "enc_private_key"),
    "show-wallet-not-json": ("wallet show --path {wallet-not-json}", None, 3, "error: "),
    "register-wallet-str-iterations": (
        "--wallet {wallet-str-iterations} user register --org acme --role member --nonce 0",
        None, 3, "kdf_iterations"),
    "register-wrong-passphrase": (
        "--node http://127.0.0.1:1 --wallet {wallet} user register --org acme "
        "--role member --nonce 0", "not the passphrase", 3, "error [BadPassphrase]"),
    "sim-no-validators": ("sim run {scenario-no-validators}", None, 3, "validators"),
    "sim-float-max-holders": ("sim run {scenario-float-max-holders}", None, 3, "max_holders"),
    "sim-str-self-assignable": (
        "sim run {scenario-str-self-assignable}", None, 3, "self_assignable"),
    "sim-float-max-ticks": ("sim run {scenario-float-max-ticks}", None, 3, "max_ticks"),
    "sim-float-tick": ("sim run {scenario-float-tick}", None, 3, "tick"),
    "sim-float-org": ("sim run {scenario-float-org}", None, 3, "org must be a string"),
    "sim-crash-node-9": ("sim run {scenario-crash-node-9}", None, 3, "names node 9"),
    "sim-crash-str-node": ("sim run {scenario-crash-str-node}", None, 3, "CrashRule node"),
    "sim-crash-str-tick": ("sim run {scenario-crash-str-tick}", None, 3, "CrashRule from_tick"),
    **{f"sim-rng-seed-{kind}": (f"sim run {{scenario-rng-seed-{kind}}}", None, 3, "rng_seed")
       for kind in _BAD_SEEDS},
    "config-list": ("--config {config-list} wallet show", None, 2, "not a JSON object"),
    "config-unknown-key": (
        "--config {config-node-url-dashed} wallet show", None, 2, "unknown key 'node-url'"),
    "config-node-url-int": (
        "--config {config-node_url-5} perm check --user " + "ab" * 20
        + " --org acme --resource ledger --action read", None, 2, "node_url must be a string"),
    "config-wallet-path-int": (
        "--config {config-wallet_path-5} wallet show", None, 2, "wallet_path must be a string"),
    "config-output-xml": (
        "--config {config-output-xml} wallet show", None, 2, "output must be human or json"),
    "seed-hex-not-hex": ("wallet create --seed-hex zz --path {wallet}.new", None, 2, "hex"),
}


@pytest.mark.parametrize("probe", sorted(_PROBES))
def test_bad_input_exits_with_its_code_and_one_error_line(runner, tmp_path, probe_files, probe):
    argv, passphrase, code, text = _PROBES[probe]
    env = _env(tmp_path)
    if passphrase is not None:
        env["ROLECHAIN_PASSPHRASE"] = passphrase
    args = [arg.format_map(probe_files) for arg in argv.split()]
    r = runner.invoke(main, args, env=env)
    assert r.exit_code == code, (r.output, r.exception)
    assert "Traceback" not in r.output
    # A usage error (exit 2) also prints click's usage banner around its one line.
    lines = r.stderr.strip().splitlines() if code == 3 else [
        line for line in r.stderr.splitlines() if line.lower().startswith("error")
    ]
    assert len(lines) == 1 and lines[0].lower().startswith("error"), r.stderr
    assert text in lines[0], r.stderr


def test_the_module_entry_point_exits_3_without_a_traceback(probe_files):
    """A real process, as a user runs it: no traceback reaches the terminal."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"),
    ]))}
    proc = subprocess.run(
        [sys.executable, "-m", "rolechain.cli", "chain", "verify", probe_files["chain"],
         "--genesis", probe_files["genesis-no-chain-id"]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: not a GenesisFile") and "Traceback" not in proc.stderr
