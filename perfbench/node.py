"""Node workloads: a ``rolechain node serve`` subprocess driven over HTTP.

The node cold-starts from a seeded data dir (about 2,000 self-registered
users in 2 orgs x 4 roles plus a few dozen grants, 20 transactions per
block). The load is closed-loop from ``CONNECTIONS`` keep-alive
connections, one thread each, over loopback with no injected delay.

* ``check_read``: only ``GET /v1/permissions/check``.
* ``node_mixed``: one request in five is a pre-signed write (fresh-user
  registration, admin add-role, admin grant/revoke toggle); the rest are
  checks. Writes never touch what checks query, so every answer is known
  in advance.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import random
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from urllib.parse import urlencode

from rolechain.api import ServiceConfig
from rolechain.ledger import build_block, new_chain
from rolechain.state import apply_transaction
from rolechain.store import Store, build_genesis_state, chain_path, save_genesis
from rolechain.wallet import create_wallet, save_wallet

from perfbench import gen, oracle
from perfbench.report import BenchError, Outcome, latency_line
from perfbench.trace import Spans, load_spans

N_BASE_USERS = 2000
GRANT_SHARE = 0.3
TXS_PER_BLOCK = 20
CONNECTIONS = 2
N_CHECK_TRIPLES = 4000
WRITE_EVERY = 5           # node_mixed: one write in each group of 5 requests
WRITE_OPS_PER_SECOND = 400  # node_mixed ops pre-signed per connection per measured second
SETUP_SPAWNS = 3           # cold starts per untraced run; the last one serves
START_TIMEOUT_S = 150
STOP_TIMEOUT_S = 30


class Inputs:
    """Everything a node run sends, generated from the seed before timing."""

    def __init__(self, seed: int, workload: str, seconds: float):
        self.actors = gen.Actors(seed)
        self.base = gen.base_chain(self.actors, N_BASE_USERS, GRANT_SHARE)
        rng = random.Random(f"checks:{seed}")
        triples = gen.check_triples(self.base, rng, N_CHECK_TRIPLES)
        answers = oracle.expected_answers(self.base.model.ura, self.base.model.pra, triples)
        self.checks = list(zip(triples, answers))
        self.granted_share = sum(a[0] for a in answers) / len(answers)
        if workload == "check_read":
            # Checks are idempotent, so each connection cycles through its list.
            self.streams = []
            for c in range(CONNECTIONS):
                pick = random.Random(f"read:{seed}:{c}")
                self.streams.append([gen.Op(check=pick.choice(triples)) for _ in range(N_CHECK_TRIPLES)])
        else:
            n_ops = int(WRITE_OPS_PER_SECOND * max(seconds, 1))
            self.streams = [
                gen.mixed_stream(self.actors, self.base, c, n_ops, WRITE_EVERY, triples)
                for c in range(CONNECTIONS)
            ]
        expected = dict(self.checks)
        # Requests are encoded here so the timed loop only sends bytes.
        self.requests = [[encode(op, expected) for op in stream] for stream in self.streams]


def encode(op: gen.Op, expected: dict) -> tuple:
    """(method, path, body, kind, expected check answer) of one request."""
    if op.tx is not None:
        body = json.dumps(op.tx.to_dict()).encode()
        return "POST", "/v1/transactions", body, op.kind, None
    user, org, (resource, action) = op.check
    query = urlencode({"user": user, "org": org, "resource": resource, "action": action})
    return "GET", f"/v1/permissions/check?{query}", None, "check", expected[op.check]


def write_data_dir(inputs: Inputs, directory: Path) -> None:
    """Genesis, node key and the base chain, stored through the program's own Store."""
    directory.mkdir(parents=True)
    actors = inputs.actors
    genesis = actors.genesis()
    save_genesis(genesis, directory / "genesis.json")
    v0 = actors.validators[0]
    salt = hashlib.sha256(b"node-key-salt:" + v0.address.encode()).digest()[:16]
    save_wallet(
        create_wallet(v0.signing_key, gen.NODE_KEY_PASSPHRASE, kdf_salt=salt, iterations=1),
        directory / "node_key.json",
    )
    state = build_genesis_state(genesis)
    store = Store(chain_path(directory))
    tip = new_chain(state).tip
    store.append(tip)
    txs = inputs.base.txs
    for start in range(0, len(txs), TXS_PER_BLOCK):
        batch = txs[start:start + TXS_PER_BLOCK]
        height = tip.header.height + 1
        proposer = actors.validators[height % len(actors.validators)].address
        tip = build_block(tip.header, batch, state, proposer, height)
        for i, tx in enumerate(batch):
            state, _ = apply_transaction(state, tx, height=height, tx_index=i)
        store.append(tip)


class NodeProcess:
    """One node subprocess in its own copy of the data dir."""

    def __init__(self, root: Path, pristine: Path, workdir: Path, traced: bool):
        self.dir = workdir
        shutil.copytree(pristine, workdir)
        self.config_path = workdir / "service.json"
        self.config_path.write_text(json.dumps({
            "listen": "127.0.0.1:0", "data_dir": str(workdir),
            "genesis": str(workdir / "genesis.json"), "node_key": str(workdir / "node_key.json"),
        }))
        self.trace_dir = workdir / "trace"
        if traced:
            self.argv = [sys.executable, "-m", "perfbench.launcher",
                         "--config", str(self.config_path), "--out", str(self.trace_dir)]
        else:
            self.argv = [sys.executable, "-m", "rolechain.cli", "node", "serve",
                         "--config", str(self.config_path)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        self.env["PYTHONUNBUFFERED"] = "1"
        for key in ServiceConfig.ENV_KEYS.values():
            self.env.pop(key, None)
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for the first 200 from /v1/status; returns seconds taken."""
        self._log = open(self.dir / "node.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        line = self._read_line(t0 + START_TIMEOUT_S)
        try:
            self.port = int(line.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            raise BenchError(f"node did not announce its port: {line!r}") from None
        while True:
            try:
                status, _ = get(self.port, "/v1/status")
                if status == 200:
                    return time.perf_counter() - t0
            except OSError:
                pass
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                raise BenchError("node never answered /v1/status")
            time.sleep(0.005)

    def _read_line(self, deadline: float) -> str:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while time.perf_counter() < deadline:
                if sel.select(timeout=0.5):
                    return self.proc.stdout.readline().decode(errors="replace").strip()
                if self.proc.poll() is not None:
                    break
        finally:
            sel.close()
        self.stop()
        tail = (self.dir / "node.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"node failed to start:\n{tail}")

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("VmHWM not found")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        self.proc = None


def get(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


OK, FAILED, WRONG = "ok", "failed", "wrong"


def _worker(port: int, requests, deadline: float, out: dict) -> None:
    """Closed loop: send the next request only after the previous reply."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    results = out["results"]
    headers = {"Content-Type": "application/json"}
    sent = 0
    try:
        for method, path, body, kind, expected in requests:
            if time.perf_counter() >= deadline:
                break
            sent += 1
            t0 = time.perf_counter()
            try:
                conn.request(method, path, body=body, headers=headers if body else {})
                resp = conn.getresponse()
                data = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                results.append((kind, 0.0, FAILED, f"{kind}: {exc!r}"))
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                continue
            latency = time.perf_counter() - t0
            results.append((kind, latency, *_judge(kind, resp.status, data, expected)))
        else:
            out["exhausted"] = True
    finally:
        out["sent"] = sent
        out["finished"] = time.perf_counter()
        conn.close()


def _judge(kind: str, status: int, data: bytes, expected) -> tuple[str, str | None]:
    """(verdict, message) of one reply."""
    try:
        body = json.loads(data)
    except ValueError:
        return FAILED, f"{kind}: unreadable reply {data[:80]!r}"
    if kind == "check":
        if status != 200:
            return FAILED, f"check: status {status} {body}"
        got = (body.get("granted"), body.get("via_roles"))
        if got != expected:
            return WRONG, f"check: answered {got}, oracle says {expected}"
        return OK, None
    if status != 202 or body.get("committed_height") is None:
        return FAILED, f"{kind}: status {status} {body}"
    return OK, None


def run_phase(root: Path, work: Path, pristine: Path, inputs: Inputs, workload: str,
              seconds: float, spawns: int, traced: bool) -> Outcome:
    """Cold-start the node *spawns* times, then drive the last instance."""
    outcome = Outcome(workload)
    node = None
    try:
        for i in range(spawns):
            node = NodeProcess(root, pristine, work / f"node-{'t' if traced else 'u'}{i}", traced)
            outcome.setups_s.append(node.start())
            if i < spawns - 1:
                node.stop()
        base_status = get(node.port, "/v1/status")[1]
        outs = [{"results": [], "exhausted": False} for _ in range(CONNECTIONS)]
        start = time.perf_counter()
        deadline = start + seconds
        streams = [
            itertools.cycle(reqs) if workload == "check_read" else reqs for reqs in inputs.requests
        ]
        threads = [
            threading.Thread(target=_worker, args=(node.port, streams[c], deadline, outs[c]))
            for c in range(CONNECTIONS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        outcome.duration_s = max(o["finished"] for o in outs) - start
        outcome.peak_rss_mb = node.vm_hwm_mb()
        _, status = get(node.port, "/v1/status")
        _, events = get(node.port, "/v1/events")
    finally:
        if node is not None:
            node.stop()

    results = [r for o in outs for r in o["results"]]
    done = [r for r in results if r[2] == OK]
    outcome.attempted = len(results)
    outcome.failed = outcome.attempted - len(done)
    outcome.completed = len(done)
    outcome.latencies_s = [r[1] for r in done]
    outcome.problems = [r[3] for r in results if r[2] == WRONG]
    outcome.lines += [f"failure: {r[3]}" for r in results if r[2] == FAILED][:5]
    if any(o["exhausted"] for o in outs):
        outcome.lines.append("note: a connection used up its pre-signed requests early")

    # The streams' writes commute (see gen.mixed_stream), so the base history
    # followed by each connection's sent writes is the expected history.
    sent = [op.tx for stream, o in zip(inputs.streams, outs) for op in stream[:o["sent"]] if op.tx]
    want = oracle.fold_transactions(tx.to_dict() for tx in inputs.base.txs + sent)
    got = oracle.fold_events(events["events"])
    if got != want:
        outcome.problems.append(
            f"event fold differs from the calls sent: ura {len(got[0])} vs {len(want[0])}, "
            f"pra {len(got[1])} vs {len(want[1])}")

    checks = [r[1] for r in done if r[0] == "check"]
    writes = [r[1] for r in done if r[0] != "check"]
    committed = len(writes)
    outcome.lines += [
        f"cold starts: {', '.join(f'{s:.3f}s' for s in outcome.setups_s)}",
        latency_line("check", checks),
        f"checks granted in oracle: {inputs.granted_share:.3f} of {len(inputs.checks)} triples",
    ]
    if workload == "node_mixed":
        outcome.lines += [
            latency_line("submit->committed", writes),
            f"commit_tps: {committed / outcome.duration_s:.3f} tx/s ({committed} writes committed)",
        ]
    outcome.lines.append("fingerprint /v1/status: " + json.dumps(status, sort_keys=True))
    outcome.layer = {
        "committed_txs": committed,
        "blocks": status["height"] - base_status["height"],
        "client_check_p50_s": median(checks) if checks else 0.0,
        "window": (int(start * 1e9), int((start + outcome.duration_s) * 1e9)),
        "trace_dir": node.trace_dir if traced else None,
    }
    return outcome


def traced_layers(outcome: Outcome) -> tuple[Spans, Spans, dict]:
    """(spans in the timed window, all spans, launcher counters) of a traced phase."""
    names, cols = load_spans(outcome.layer["trace_dir"] / "spans")
    counters = json.loads((outcome.layer["trace_dir"] / "counters.json").read_text())
    return Spans(names, cols, outcome.layer["window"]), Spans(names, cols), counters
