"""The node's head reader and one-piece reply against the stdlib's, head by head.

``_Reference`` is the node's handler with ``BaseHTTPRequestHandler.parse_request``
and the ``send_response``/``send_header`` reply put back. Each head of the
corpus goes to a server of each kind, each fronting its own twin of one
network, followed by a pipelined ``Connection: close`` status request. The
two byte streams, ``Date`` aside, must be equal: the same status lines,
header lines and bodies, and the connection kept (two replies) or closed
(one) alike.
"""

import http.client
import re
import socket
from http.server import BaseHTTPRequestHandler

from rolechain import api, codec
from rolechain.api import ApiServer, NodeHandle
from rolechain.consensus import Network, NetworkConfig

FOLLOW_UP = b"GET /v1/status HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"


class _Reference(api._Handler):
    parse_request = BaseHTTPRequestHandler.parse_request

    def _reply(self, status, body, close=False):
        data = codec.canonical_dumps(body).encode("utf-8") + b"\n"
        self.send_response(status)
        if close:
            self.send_header("Connection", "close")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def _corpus(txf, wallets) -> list[bytes]:
    alice = wallets["alice"].address
    tx = codec.canonical_dumps(txf.register("alice", "acme", "member").to_dict()).encode()
    routes = [
        "/v1/transactions",
        "/v1/status",
        f"/v1/permissions/check?user={alice}&org=acme&resource=ledger&action=read",
        "/v1/events?kind=UserRegistered",
        f"/v1/accounts/{alice}",
        f"/v1/users/{alice}",
        f"/v1/users/{alice}/roles",
        "/v1/blocks/1",
        "/v1/nope",
    ]
    variants = [  # version, then headers: Connection either way, names in mixed case
        ("HTTP/1.1", "Host: x\r\n"),
        ("HTTP/1.1", "hOsT: x\r\nCONNECTION: Close\r\n"),
        ("HTTP/1.0", ""),
        ("HTTP/1.0", "Connection: keep-alive\r\nUser-Agent: t\r\n"),
    ]
    heads = []
    for version, headers in variants:
        for path in routes:
            heads.append(f"GET {path} {version}\r\n{headers}\r\n".encode())
            length = f"cOnTeNt-LeNgTh: {len(tx)}\r\n"
            heads.append(f"POST {path} {version}\r\n{headers}{length}\r\n".encode() + tx)
    bob = codec.canonical_dumps(txf.register("bob", "acme", "member").to_dict()).encode()
    expect = f"Expect: 100-continue\r\nContent-Length: {len(bob)}\r\n\r\n".encode() + bob
    fields = [f"X-{i}: {i}\r\n" for i in range(100)]
    pad = "X-Pad: " + "a" * (api._MAX_LINE - len("X-Pad: \r\n")) + "\r\n"
    heads += [
        b"POST /v1/transactions HTTP/1.1\r\n" + expect,
        b"POST /v1/transactions HTTP/1.0\r\n" + expect,
        f"GET /v1/status HTTP/1.1\r\n{''.join(fields[:99])}\r\n".encode(),
        f"GET //v1/status HTTP/1.1\r\n{pad}\r\n".encode(),
        # The heads the stdlib refuses.
        f"GET /v1/status HTTP/1.1\r\n{''.join(fields)}\r\n".encode(),
        f"GET /v1/status HTTP/1.1\r\n{''.join(fields)}X-100: 100\r\n\r\n".encode(),
        f"GET /v1/status HTTP/1.1\r\nX-Pad: a{pad}\r\n".encode(),
        b"GET /" + b"a" * api._MAX_LINE + b" HTTP/1.1\r\n\r\n",
        b"GET /v1/status HTTP/1.x\r\n\r\n",
        b"GET /v1/status HTTP/2.0\r\n\r\n",
        b"GET /v1/status HTTP/1.1 extra\r\n\r\n",
        b"PUT /v1/status HTTP/1.1\r\n\r\n",
        b"HEAD /v1/status HTTP/1.1\r\n\r\n",
        b"GET /v1/status\r\n\r\n",
        b"POST /v1/status\r\n\r\n",
        b"HEAD /v1/status\r\n\r\n",
        b"GET\r\n\r\n",
        b"\r\n",
    ]
    return heads


def _exchange(port: int, head: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head + FOLLOW_UP)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:  # closed with the follow-up unread
            pass
    return re.sub(rb"\r\nDate: [^\r]*", b"\r\nDate: -", b"".join(chunks))


def _serve_corpus(handler, genesis_file, genesis_state, heads) -> list[bytes]:
    vals = list(genesis_file.validators)
    network = Network(NetworkConfig(validators=vals, rng_seed=77), genesis_state)
    server = ApiServer(NodeHandle(network, vals[0], chain_id="testnet"))
    server._httpd.RequestHandlerClass = handler
    server.start()
    try:
        return [_exchange(server.port, head) for head in heads]
    finally:
        server.stop()


def test_every_head_is_answered_as_the_stdlib_answers_it(
    genesis_file, genesis_state, txf, wallets, monkeypatch
):
    heads = _corpus(txf, wallets)
    expected = _serve_corpus(_Reference, genesis_file, genesis_state, heads)
    calls = []

    def parse_headers(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the node's head reader does not use the stdlib's")

    monkeypatch.setattr(http.client, "parse_headers", parse_headers)
    got = _serve_corpus(api._Handler, genesis_file, genesis_state, heads)
    assert not calls
    for head, want, have in zip(heads, expected, got):
        assert have == want, head[:80]
    # The corpus reaches what it means to: a commit, a 100 Continue, kept and
    # closed connections, and each refusal.
    replies = b"".join(expected)
    for status in (b"202", b"100", b"404", b"431", b"414", b"501"):
        assert b"HTTP/1.1 " + status + b" " in replies
    assert b"Error code: 505" in replies and b"Error code: 400" in replies
    assert sum(r.count(b"HTTP/1.1 200 OK") == 2 for r in expected) > 10
    assert sum(r.count(b"HTTP/1.1 200 OK") == 1 for r in expected) > 10


def test_a_continue_is_sent_before_the_body_arrives(genesis_file, genesis_state, txf):
    vals = list(genesis_file.validators)
    network = Network(NetworkConfig(validators=vals, rng_seed=77), genesis_state)
    server = ApiServer(NodeHandle(network, vals[0])).start()
    body = codec.canonical_dumps(txf.register("alice", "acme", "member").to_dict()).encode()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/transactions HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(1024) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            resp = http.client.HTTPResponse(sock)
            resp.begin()
            assert resp.status == 202 and resp.read()
    finally:
        server.stop()
