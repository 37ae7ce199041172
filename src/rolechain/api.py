"""Per-node HTTP/JSON service.

Each server fronts one validator of an in-process network: writes go through
``POST /v1/transactions`` into the consensus path, reads are served from that
node's committed snapshot and stamped with the height they were evaluated
at. Signing always happens client-side; no passphrase or key material ever
reaches these endpoints.

Error bodies are ``{"code", "message"}`` with ``code`` drawn from the closed
vocabulary in :mod:`rolechain.errors` (contract codes plus ``Malformed``,
``MissingParam``, ``NotFound``, ``Unavailable``).
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from . import codec
from .consensus import Network, NetworkConfig, restart, submit_tx
# Writes pump with the bare loop, which builds no report (the bench launcher wraps this name).
from .consensus import step_until_quiescent as run_until_quiescent
from .errors import ReplayDivergence
from .ledger import hash_header
from .payloads import SignedTransaction
from .sco import check_permission
from .state import (
    EVENT_KINDS,
    Permission,
    WorldState,
    expected_nonce,
    query_roles,
    query_user,
    state_root,
)
from .store import Store, build_genesis_state, chain_path, load_chain, load_genesis
from .wallet import load_wallet

# Most ticks one write steps the network for before it answers, committed or not.
PUMP_TICKS = 400
# Largest accepted request body; a signed transaction is well under 2 KiB.
MAX_BODY_BYTES = 64 * 1024
# How often the serving thread checks for shutdown; stop() waits up to this.
SHUTDOWN_POLL_S = 0.05
# Longest a connection's socket read or write may wait before the handler
# closes it, so a client that stalls mid-request or idles holds no thread.
REQUEST_TIMEOUT_S = 30

_LENGTH_RE = re.compile(r"[0-9]{1,18}[ \t]*")


class ApiFailure(Exception):
    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


@dataclass
class ServiceConfig:
    """Node service configuration (JSON file keys, overridable per environment)."""

    listen: str = "127.0.0.1:8545"
    data_dir: str = "./data"
    genesis: str = ""
    node_key: str = ""

    ENV_KEYS = {
        "listen": "ROLECHAIN_LISTEN",
        "data_dir": "ROLECHAIN_DATA_DIR",
        "genesis": "ROLECHAIN_GENESIS",
        "node_key": "ROLECHAIN_NODE_KEY",
    }

    @classmethod
    def load(cls, path: str | Path | None, env: dict | None = None) -> "ServiceConfig":
        """The config in JSON file *path* (if any), each key overridden by its set variable."""
        env = os.environ if env is None else env
        data = codec.loads(Path(path).read_text("utf-8")) if path else {}
        if not isinstance(data, dict):
            raise ValueError(f"service config {path} is not a JSON object")
        values = {**data, **{k: env[var] for k, var in cls.ENV_KEYS.items() if env.get(var)}}
        for key, value in values.items():
            if key not in cls.ENV_KEYS:
                raise ValueError(f"service config {path} has an unknown key {key!r}")
            if not isinstance(value, str):
                raise ValueError(f"service config {key!r} must be a string, not {value!r}")
        return cls(**values)


class NodeHandle:
    """One validator's view of the shared network, with a serialized write path.

    Writes and reads take the network's one lock. With a *store*, every block
    of the node's chain that the store lacks is written to it.
    """

    def __init__(
        self, network: Network, node_id: str, *, chain_id: str = "", store: Store | None = None
    ):
        if node_id not in network.nodes:
            raise ValueError(f"{node_id} is not a validator of this network")
        self.network = network
        self.node_id = node_id
        self.chain_id = chain_id
        self.store = store
        self._persist()

    @property
    def node(self):
        return self.network.nodes[self.node_id]

    def _persist(self) -> None:
        if self.store is not None:
            self.store.extend(self.node.chain)

    def submit(self, tx: SignedTransaction) -> dict:
        with self.network.lock:
            accepted, reason, tx_id = submit_tx(self.network, tx, via=self.node_id)
            if not accepted:
                raise ApiFailure(422, reason or "BadSignature", "transaction rejected")
            submitted_at = self.node.next_height
            run_until_quiescent(self.network, PUMP_TICKS)  # may end accepted, uncommitted
            # Only a commit by this pump counts: a resubmitted tx already on chain gets None.
            height = self.network.tx_heights.get(tx_id, -1)
            committed_height = height if submitted_at <= height < self.node.next_height else None
            self._persist()
            return {
                "accepted": True,
                "tx_id": tx_id,
                "committed_height": committed_height,
                "node_height": self.node.next_height - 1,
            }

    def snapshot(self) -> tuple[int, WorldState, tuple]:
        with self.network.lock:
            node = self.node
            return node.next_height - 1, node.state, node.chain.blocks


class _Handler(BaseHTTPRequestHandler):
    server_version = "rolechain/0.1"
    protocol_version = "HTTP/1.1"
    # Send each reply at once: a buffered writer joins the headers and body
    # into one write, flushed at the end of every request, and with Nagle
    # off that write does not wait for the client's delayed ACK.
    disable_nagle_algorithm = True
    wbufsize = -1
    timeout = REQUEST_TIMEOUT_S

    # --- plumbing ---------------------------------------------------------

    @property
    def handle_ref(self) -> NodeHandle:
        return self.server.node_handle  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: N802 - stdlib naming
        pass

    def _reply(self, status: int, body: dict, close: bool = False) -> None:
        data = codec.canonical_dumps(body).encode("utf-8") + b"\n"
        self.send_response(status)
        if close:
            self.send_header("Connection", "close")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _error(self, status: int, code: str, message: str, close: bool = False) -> None:
        self._reply(status, {"code": code, "message": message}, close)

    # --- routing ----------------------------------------------------------

    def do_POST(self):  # noqa: N802
        try:
            url = urlparse(self.path)
            if url.path != "/v1/transactions":
                return self._error(404, "NotFound", f"no such endpoint {url.path}", close=True)
            length = self.headers.get("Content-Length")
            if length is None:
                return self._error(400, "Malformed", "Content-Length is required")
            # A length that frames no body, or a body left unread, ends the connection.
            if not _LENGTH_RE.fullmatch(length):
                return self._error(400, "Malformed", "Content-Length is not a count", close=True)
            if int(length) > MAX_BODY_BYTES:
                return self._error(413, "Malformed", f"body over {MAX_BODY_BYTES} bytes", close=True)
            raw = self.rfile.read(int(length))
            try:
                tx = SignedTransaction.from_dict(codec.loads(raw))
                tx.tx_id  # the submit's id; UnicodeEncodeError on a lone surrogate
            except (ValueError, TypeError, RecursionError) as exc:  # RecursionError: too deep
                return self._error(400, "Malformed", f"body is not a transaction: {exc}")
            try:
                result = self.handle_ref.submit(tx)
            except ApiFailure as exc:
                return self._error(exc.status, exc.code, exc.message)
            return self._reply(202, result)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def do_GET(self):  # noqa: N802
        try:
            url = urlparse(self.path)
            params = {k: v[0] for k, v in parse_qs(url.query).items()}
            route = url.path.rstrip("/") or "/"
            try:
                self._route_get(route, params)
            except ApiFailure as exc:
                self._error(exc.status, exc.code, exc.message)
        except BrokenPipeError:  # pragma: no cover
            pass

    def _route_get(self, route: str, params: dict) -> None:
        name = _GET_EXACT.get(route)
        if name is not None:
            return getattr(self, name)(params)
        for pattern, name in _GET_PATTERNS:
            m = pattern.fullmatch(route)
            if m:
                return getattr(self, name)(m.group(1))
        self._error(404, "NotFound", f"no such endpoint {route}")

    # --- endpoints ----------------------------------------------------------

    @staticmethod
    def _checked_address(value: str) -> str:
        if not codec.is_hex(value, 20):
            raise ApiFailure(400, "Malformed", "address must be 40 lowercase hex chars")
        return value

    def _get_status(self, params: dict) -> None:
        height, state, blocks = self.handle_ref.snapshot()
        self._reply(200, {
            "chain_id": self.handle_ref.chain_id,
            "node": self.handle_ref.node_id,
            "height": height,
            "state_root": state_root(state),
            "tip_hash": hash_header(blocks[-1].header),
        })

    def _get_check(self, params: dict) -> None:
        missing = [n for n in ("user", "org", "resource", "action") if not params.get(n)]
        if missing:
            raise ApiFailure(400, "MissingParam", f"missing query params: {', '.join(missing)}")
        user = self._checked_address(params["user"])
        try:
            permission = Permission(params["resource"], params["action"])
        except ValueError as exc:
            raise ApiFailure(400, "Malformed", str(exc)) from None
        height, state, _ = self.handle_ref.snapshot()
        result = check_permission(state, user, params["org"], permission)
        body = result.to_dict()
        body.update({
            "height": height,
            "user": user,
            "org": params["org"],
            "permission": permission,
        })
        self._reply(200, body)

    def _get_account(self, raw_addr: str) -> None:
        addr = self._checked_address(raw_addr)
        height, state, _ = self.handle_ref.snapshot()
        self._reply(200, {
            "address": addr,
            "next_nonce": expected_nonce(state, addr),
            "registered": addr in state.users,
            "height": height,
        })

    def _get_user(self, raw_addr: str) -> None:
        addr = self._checked_address(raw_addr)
        height, state, _ = self.handle_ref.snapshot()
        record = query_user(state, addr)
        if record is None:
            raise ApiFailure(404, "NotRegistered", f"no user record for {addr}")
        body = record.to_dict()
        body["height"] = height
        self._reply(200, body)

    def _get_user_roles(self, raw_addr: str) -> None:
        addr = self._checked_address(raw_addr)
        height, state, _ = self.handle_ref.snapshot()
        roles = query_roles(state, addr)
        self._reply(200, {
            "address": addr,
            "roles": {org: sorted(rs) for org, rs in sorted(roles.items())},
            "height": height,
        })

    def _get_block(self, raw_height: str) -> None:
        height = int(raw_height)
        _, _, blocks = self.handle_ref.snapshot()
        if height >= len(blocks):
            raise ApiFailure(404, "NotFound", f"no block at height {height}")
        block = blocks[height]
        body = block.to_dict()
        body["hash"] = hash_header(block.header)
        self._reply(200, body)

    def _get_events(self, params: dict) -> None:
        kind = params.get("kind")
        org = params.get("org")
        try:
            from_height = max(0, int(params.get("from_height", 0)))
        except ValueError:
            raise ApiFailure(400, "Malformed", "from_height must be an integer") from None
        if kind is not None and kind not in EVENT_KINDS:
            raise ApiFailure(400, "Malformed", f"unknown event kind {kind!r}")
        height, _, blocks = self.handle_ref.snapshot()
        events = []
        for block in blocks[from_height:]:
            for event in block.events:
                if kind is not None and event.kind != kind:
                    continue
                if org is not None and event.attrs.get("org") != org:
                    continue
                events.append(event.to_dict())
        self._reply(200, {"events": events, "height": height})


# GET routes to _Handler method names, looked up per request so a wrapper set on
# the class is called: exact paths, then patterns whose one group is the argument.
_GET_EXACT = {
    "/v1/status": "_get_status",
    "/v1/permissions/check": "_get_check",
    "/v1/events": "_get_events",
}
_GET_PATTERNS = tuple((re.compile(pattern), name) for pattern, name in (
    (r"/v1/accounts/([^/]+)", "_get_account"),
    (r"/v1/users/([^/]+)", "_get_user"),
    (r"/v1/users/([^/]+)/roles", "_get_user_roles"),
    (r"/v1/blocks/([0-9]{1,18})", "_get_block"),
))


class ApiServer:
    """Threaded HTTP server bound to one NodeHandle."""

    def __init__(self, handle: NodeHandle, listen: str = "127.0.0.1:0"):
        host, _, port = listen.partition(":")
        self._httpd = ThreadingHTTPServer((host, int(port or 0)), _Handler)
        self._httpd.node_handle = handle  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self.handle = handle

    @property
    def port(self) -> int:
        return self._httpd.server_port

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ApiServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": SHUTDOWN_POLL_S},
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:  # shutdown() only returns once serve_forever is running
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()


def build_node_service(config: ServiceConfig) -> ApiServer:
    """Assemble a full node from its config: genesis, key, storage, network, server.

    The process simulates the whole validator set deterministically and
    exposes the keyed validator's view over HTTP; an existing chain file is
    loaded and verified by one full replay, whose chain and post-state every
    replica then starts from.
    """
    genesis = load_genesis(config.genesis)
    genesis_state = build_genesis_state(genesis)
    node_key = load_wallet(config.node_key)
    if node_key.address not in genesis.validators:
        raise ValueError(f"node key {node_key.address} is not a genesis validator")

    network_config = NetworkConfig(validators=list(genesis.validators))
    network = Network(network_config, genesis_state, trace_digest=False)  # it builds no report
    store = Store(chain_path(config.data_dir))
    if store.height is None:  # a stored chain: every replica starts from its audit
        try:
            restart(network, genesis_state, load_chain(store))
        except ReplayDivergence as exc:
            raise ValueError(f"stored chain fails verification at height {exc.height}: {exc}")
    handle = NodeHandle(network, node_key.address, chain_id=genesis.chain_id, store=store)
    return ApiServer(handle, listen=config.listen)
