"""Independent reference implementations used as oracles.

Everything here is deliberately primitive — plain tuples, sets, and loops,
sharing no code with the modules under test — so agreement between the two
sides actually means something. Two exceptions: ``check_integrity``, a
full-scan invariant check that reuses the program's address derivation, and
``on_a_copy``, the adapter through which tests call a contract handler
directly.
"""

from __future__ import annotations

from collections import Counter

from rolechain import keys
from rolechain.state import Permission, WorldState


def on_a_copy(handler):
    """*handler* run on a clone of the state it is given, returning (new state, events).

    Contract handlers write into the state they are given. Tests that call
    one directly keep the value shape through this adapter, so the
    session-scoped ``genesis_state`` fixture is never written.
    """
    def call(state, tx, **kwargs):
        new = state.clone()
        return new, handler(new, tx, **kwargs)
    return call


def brute_force_check(ura, pra, user: str, org: str, perm: tuple[str, str]):
    """Enumerate ura x pra exhaustively. perm is a plain (resource, action) tuple."""
    roles = set()
    for u, o, r in ura:
        if u != user or o != org:
            continue
        for po, pr, pp in pra:
            if po == org and pr == r and pp == perm:
                roles.add(r)
    return bool(roles), roles


def fold_events(event_dicts):
    """Reconstruct (ura, pra) purely from an ordered audit event stream.

    pra entries use plain (resource, action) tuples.
    """
    ura: set[tuple[str, str, str]] = set()
    pra: set[tuple[str, str, tuple[str, str]]] = set()
    for e in sorted(event_dicts, key=lambda d: (d["height"], d["tx_index"])):
        kind, a = e["kind"], e["attributes"]
        if kind == "UserRegistered":
            ura.add((a["user"], a["org"], a["role"]))
        elif kind == "UserRoleUpdated":
            ura.discard((a["user"], a["org"], a["old_role"]))
            ura.add((a["user"], a["org"], a["new_role"]))
        elif kind == "PermissionGranted":
            p = a["permission"]
            pra.add((a["org"], a["role"], (p["resource"], p["action"])))
        elif kind == "PermissionRevoked":
            p = a["permission"]
            pra.discard((a["org"], a["role"], (p["resource"], p["action"])))
        else:
            raise AssertionError(f"unexpected event kind {kind}")
    return ura, pra


def plain_relations(state):
    """Project a WorldState's relations onto oracle-friendly plain tuples."""
    ura = set(state.ura)
    pra = {(o, r, (p.resource, p.action)) for o, r, p in state.pra}
    return ura, pra


_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
                 "\b": "\\b", "\f": "\\f"}


def _ref_str(s: str) -> str:
    if type(s) is not str:
        raise TypeError(f"expected a string, got {s!r}")
    out = ['"']
    for ch in s:
        if ch in _JSON_ESCAPES:
            out.append(_JSON_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _ref_scalar(v) -> str:
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if type(v) is int:
        return str(v)
    if type(v) is str:
        return _ref_str(v)
    raise TypeError(f"not a canonical scalar: {v!r}")


def _ref_object(pairs) -> str:
    """*pairs* of (key, already-encoded value), emitted in sorted key order."""
    return "{" + ",".join(_ref_str(k) + ":" + v for k, v in sorted(pairs)) + "}"


def _ref_array(items) -> str:
    return "[" + ",".join(items) + "]"


def _ref_org(rec) -> str:
    catalog = [
        (role, _ref_object([
            ("max_holders", _ref_scalar(p.max_holders)),
            ("role_id", _ref_str(p.role_id)),
            ("self_assignable", _ref_scalar(p.self_assignable)),
        ]))
        for role, p in rec.role_catalog.items()
    ]
    return _ref_object([
        ("admins", _ref_array(_ref_str(a) for a in sorted(rec.admins))),
        ("org_id", _ref_str(rec.org_id)),
        ("role_catalog", _ref_object(catalog)),
    ])


def reference_state_bytes(state) -> bytes:
    """The canonical bytes of a WorldState, written out by hand.

    Mirrors the byte contract (sorted keys, no whitespace, decimal integers,
    no floats) field by field from the record attributes, without the codec
    module or any ``to_dict``, so ``sha256`` of this equals ``state_root``.
    """
    def permission(p):
        return _ref_object([("action", _ref_str(p.action)), ("resource", _ref_str(p.resource))])

    def user(rec):
        return _ref_object([
            ("address", _ref_str(rec.address)),
            ("password_digest", _ref_str(rec.password_digest)),
            ("public_key", _ref_str(rec.public_key)),
            ("registered_at", _ref_array(_ref_scalar(x) for x in rec.registered_at)),
        ])

    pra = sorted(state.pra, key=lambda t: (t[0], t[1], t[2].resource, t[2].action))
    text = _ref_object([
        ("nonces", _ref_object([(a, _ref_scalar(n)) for a, n in state.nonces.items()])),
        ("orgs", _ref_object([(o, _ref_org(rec)) for o, rec in state.orgs.items()])),
        ("pra", _ref_array(
            _ref_array([_ref_str(o), _ref_str(r), permission(p)]) for o, r, p in pra
        )),
        ("ura", _ref_array(_ref_array(_ref_str(x) for x in t) for t in sorted(state.ura))),
        ("users", _ref_object([(a, user(rec)) for a, rec in state.users.items()])),
    ])
    return text.encode("utf-8")


def _ref_permission(p) -> str:
    return _ref_object([("action", _ref_str(p.action)), ("resource", _ref_str(p.resource))])


_PAYLOAD_FIELDS = {
    "register_user": ("user", "public_key", "password_digest", "org", "requested_role"),
    "update_user_role": ("user", "org", "old_role", "new_role"),
    "grant_permission": ("org", "role"),
    "revoke_permission": ("org", "role"),
}


def _ref_payload(payload) -> str:
    kind = payload.kind
    fields = [("kind", _ref_str(kind))]
    fields += [(name, _ref_str(getattr(payload, name))) for name in _PAYLOAD_FIELDS[kind]]
    if kind in ("grant_permission", "revoke_permission"):
        fields.append(("permission", _ref_permission(payload.permission)))
    return _ref_object(fields)


def reference_tx_bytes(tx) -> bytes:
    """The canonical wire bytes of a SignedTransaction, written out by hand."""
    return _ref_object([
        ("nonce", _ref_scalar(tx.nonce)),
        ("payload", _ref_payload(tx.payload)),
        ("public_key", _ref_str(tx.public_key)),
        ("sender", _ref_str(tx.sender)),
        ("signature", _ref_str(tx.signature)),
    ]).encode("utf-8")


def reference_header_bytes(h) -> bytes:
    """The canonical bytes of a BlockHeader, by hand; ``hash_header`` is their SHA-256."""
    return _ref_object([
        ("height", _ref_scalar(h.height)),
        ("prev_hash", _ref_str(h.prev_hash)),
        ("proposer", _ref_str(h.proposer)),
        ("state_root", _ref_str(h.state_root)),
        ("timestamp", _ref_scalar(h.timestamp)),
        ("tx_root", _ref_str(h.tx_root)),
    ]).encode("utf-8")


def reference_block_bytes(block) -> bytes:
    """The canonical bytes of a whole Block (header, transactions, events), by hand."""
    header = reference_header_bytes(block.header).decode("utf-8")
    events = [
        _ref_object([
            ("attributes", _ref_object([
                (k, _ref_permission(v) if k == "permission" else _ref_str(v))
                for k, v in e.attributes
            ])),
            ("height", _ref_scalar(e.height)),
            ("kind", _ref_str(e.kind)),
            ("tx_index", _ref_scalar(e.tx_index)),
        ])
        for e in block.events
    ]
    txs = [reference_tx_bytes(tx).decode("utf-8") for tx in block.transactions]
    return _ref_object([
        ("events", _ref_array(events)),
        ("header", header),
        ("transactions", _ref_array(txs)),
    ]).encode("utf-8")


def reference_genesis_bytes(genesis) -> bytes:
    """The canonical bytes of a GenesisFile, by hand: orgs and validators in file order."""
    return _ref_object([
        ("chain_id", _ref_str(genesis.chain_id)),
        ("orgs", _ref_array(_ref_org(o) for o in genesis.orgs)),
        ("validators", _ref_array(_ref_str(v) for v in genesis.validators)),
    ]).encode("utf-8")


def mutate_one_byte(data: bytes, rng) -> tuple[bytes, int]:
    """Flip one random byte to a different value; returns (mutated, position)."""
    pos = rng.randrange(len(data))
    old = data[pos]
    new = rng.randrange(256)
    while new == old:
        new = rng.randrange(256)
    return data[:pos] + bytes([new]) + data[pos + 1 :], pos


def check_integrity(state: WorldState) -> None:
    """Full-scan referential integrity check; raises ValueError on the first violation."""
    for user, org, role in state.ura:
        if user not in state.users:
            raise ValueError(f"ura references unknown user {user}")
        org_rec = state.orgs.get(org)
        if org_rec is None:
            raise ValueError(f"ura references unknown org {org}")
        if role not in org_rec.role_catalog:
            raise ValueError(f"ura references role {role!r} missing from org {org}")
    for org, role, permission in state.pra:
        org_rec = state.orgs.get(org)
        if org_rec is None:
            raise ValueError(f"pra references unknown org {org}")
        if role not in org_rec.role_catalog:
            raise ValueError(f"pra references role {role!r} missing from org {org}")
        if not isinstance(permission, Permission):
            raise ValueError("pra entry does not hold a Permission")
    # Counted from the relation itself, not from the index the program keeps.
    holders = Counter((org, role) for _, org, role in state.ura)
    for org, rec in state.orgs.items():
        policy = rec.role_catalog
        for role, p in policy.items():
            if p.max_holders is not None:
                held = holders[org, role]
                if held > p.max_holders:
                    raise ValueError(f"role {org}/{role} over capacity: {held}")
    for addr, record in state.users.items():
        if keys.derive_address(bytes.fromhex(record.public_key)) != addr:
            raise ValueError(f"user record {addr} fails address derivation")
    for addr, nonce in state.nonces.items():
        if nonce < 0:
            raise ValueError(f"negative nonce for {addr}")
