"""The replicated identity state: users, organizations, role and permission relations.

The world state is a value. Applying a transaction never mutates the input
state; it validates against it, then returns a fresh copy with the change
plus the audit events the change emitted. Replaying a chain of blocks from
the genesis state reconstructs the exact same value on every node, which is
what the per-block ``state_root`` digests pin down.

``state_root`` hashes the canonical JSON of ``WorldState.to_dict()`` without
building it: every user record, nonce entry, ``ura`` tuple and ``pra`` tuple
is encoded once into its canonical text (a *fragment*), and a root joins the
fragments in sorted key order. This relies on two invariants. Records are
immutable, and a fragment is a pure function of its key and value, so it is
reused only for the very object it was encoded from.

Two relations carry the access-control model:

* ``ura`` — (user address, org id, role id): who holds which role where.
* ``pra`` — (org id, role id, permission): what each role may do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import is_
from typing import TYPE_CHECKING, Any

from . import codec
from .errors import BadNonce, BadSignature

if TYPE_CHECKING:  # pragma: no cover
    from .payloads import SignedTransaction

MAX_ID_LENGTH = 64

EVENT_USER_REGISTERED = "UserRegistered"
EVENT_USER_ROLE_UPDATED = "UserRoleUpdated"
EVENT_PERMISSION_GRANTED = "PermissionGranted"
EVENT_PERMISSION_REVOKED = "PermissionRevoked"
EVENT_KINDS = (
    EVENT_USER_REGISTERED,
    EVENT_USER_ROLE_UPDATED,
    EVENT_PERMISSION_GRANTED,
    EVENT_PERMISSION_REVOKED,
)


def _check_id(value: str, label: str) -> str:
    if not isinstance(value, str) or not value or len(value) > MAX_ID_LENGTH:
        raise ValueError(f"{label} must be a non-empty string of at most {MAX_ID_LENGTH} chars")
    return value


@dataclass(frozen=True)
class Permission(codec.Record):
    """A (resource, action) capability, e.g. ("ledger", "read")."""

    resource: str
    action: str

    def __post_init__(self):
        _check_id(self.resource, "permission resource")
        _check_id(self.action, "permission action")


@dataclass(frozen=True)
class RolePolicy(codec.Record):
    """Assignment policy for one role: who may take it and how many may hold it."""

    role_id: str
    self_assignable: bool = False
    max_holders: int | None = None  # None = unlimited

    decoders = {"self_assignable": bool}

    def __post_init__(self):
        _check_id(self.role_id, "role id")
        if self.max_holders is not None and self.max_holders < 1:
            raise ValueError("max_holders must be positive or None")


@dataclass(frozen=True)
class OrgRecord(codec.Record):
    """An organization fixed at genesis: its admins and its role catalog."""

    org_id: str
    admins: frozenset[str]
    role_catalog: dict[str, RolePolicy]

    decoders = {
        "admins": lambda addrs: frozenset(codec.require_hex(a, 20, "admin address") for a in addrs),
        "role_catalog": lambda catalog: {r: RolePolicy.from_dict(p) for r, p in catalog.items()},
    }

    def __post_init__(self):
        _check_id(self.org_id, "org id")
        if not self.admins:
            raise ValueError(f"org {self.org_id!r} has no admins")


@dataclass(frozen=True)
class UserRecord(codec.Record):
    address: str
    public_key: str
    password_digest: str
    registered_at: tuple[int, int]  # (block height, tx index)

    decoders = {"registered_at": lambda r: (r[0], r[1])}


@dataclass(frozen=True)
class Event(codec.Record):
    """One immutable audit record, anchored to its (block height, tx index).

    Its wire form holds its attributes as an object, so its codec is its own.
    """

    kind: str
    attributes: tuple[tuple[str, Any], ...]
    height: int
    tx_index: int

    @classmethod
    def make(cls, kind: str, attributes: dict, height: int, tx_index: int) -> "Event":
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        return cls(
            kind=kind,
            attributes=tuple(sorted(attributes.items())),
            height=height,
            tx_index=tx_index,
        )

    @property
    def attrs(self) -> dict:
        return dict(self.attributes)

    def to_dict(self) -> dict:
        return {
            "attributes": {k: codec.to_wire(v) for k, v in self.attributes},
            "height": self.height,
            "kind": self.kind,
            "tx_index": self.tx_index,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Event":
        attrs = dict(d["attributes"])
        if "permission" in attrs and isinstance(attrs["permission"], dict):
            attrs["permission"] = Permission.from_dict(attrs["permission"])
        return cls.make(d["kind"], attrs, d["height"], d["tx_index"])


_NO_SECTION: tuple[list, list, list] = ([], [], [])


@dataclass
class WorldState:
    """The full replicated state; see module docstring for the relations."""

    users: dict[str, UserRecord] = field(default_factory=dict)
    orgs: dict[str, OrgRecord] = field(default_factory=dict)
    ura: set[tuple[str, str, str]] = field(default_factory=set)
    pra: set[tuple[str, str, Permission]] = field(default_factory=set)
    nonces: dict[str, int] = field(default_factory=dict)

    # What the last state_root over this state or an ancestor left: its
    # sections (nonces, pra, ura, users), the orgs text and the root. Not a
    # field, so never compared; replaced, never mutated, so clones share it.
    _fragments = ((_NO_SECTION,) * 4, None, None)

    def clone(self) -> "WorldState":
        # Records are immutable, so container-level copies are enough.
        new = WorldState(
            users=dict(self.users),
            orgs=dict(self.orgs),
            ura=set(self.ura),
            pra=set(self.pra),
            nonces=dict(self.nonces),
        )
        new._fragments = self._fragments
        return new

    def to_dict(self) -> dict:
        return {
            "nonces": {a: n for a, n in sorted(self.nonces.items())},
            "orgs": {o: rec.to_dict() for o, rec in sorted(self.orgs.items())},
            "pra": [[o, r, p.to_dict()] for o, r, p in sorted(self.pra, key=_pra_order)],
            "ura": [list(t) for t in sorted(self.ura)],
            "users": {a: rec.to_dict() for a, rec in sorted(self.users.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorldState":
        return cls(
            users={a: UserRecord.from_dict(u) for a, u in d["users"].items()},
            orgs={o: OrgRecord.from_dict(rec) for o, rec in d["orgs"].items()},
            ura={(u, o, r) for u, o, r in d["ura"]},
            pra={(o, r, Permission.from_dict(p)) for o, r, p in d["pra"]},
            nonces=dict(d["nonces"]),
        )


_ABSENT = object()


def _entry_text(key: Any, value: Any) -> bytes:
    """Canonical bytes of the object entry ``"key":value``."""
    return codec.canonical_bytes({key: value})[1:-1]


def _user_text(addr: str, record: UserRecord) -> bytes:
    return _entry_text(addr, record.to_dict())


def _ura_text(_key, triple: tuple[str, str, str]) -> bytes:
    return codec.canonical_bytes(list(triple))


def _pra_text(_key, triple: tuple[str, str, Permission]) -> bytes:
    org, role, permission = triple
    return codec.canonical_bytes([org, role, permission.to_dict()])


def _pra_order(triple: tuple[str, str, Permission]) -> tuple[str, str, str, str]:
    return (triple[0], triple[1], triple[2].resource, triple[2].action)


def _section(old: tuple[list, list, list], live: dict, encode, order=None):
    """The fragments of *live* (key -> encoded object) as (keys, objects, texts) in key order.

    *old* is the section an earlier root made and is not mutated. Its text
    for a key is reused only when *live* still maps that key to the very
    same object, so only changed and new entries are encoded, and the order
    of the kept keys carries over. Except the scan for texts to encode, the
    passes over all keys run in C.
    """
    keys, objs, texts = old
    same = list(map(is_, objs, map(live.get, keys, repeat(_ABSENT))))
    if len(keys) == len(live) and all(same):
        return old
    reusable = dict(compress(zip(keys, texts), same))
    added = live.keys() - set(keys)
    keys = list(filter(live.__contains__, keys))
    keys += added
    keys.sort(key=order)  # the kept keys are one sorted run already
    objs = list(map(live.__getitem__, keys))
    texts = list(map(reusable.get, keys))
    for i in [i for i, text in enumerate(texts) if text is None]:
        texts[i] = encode(keys[i], objs[i])
    return keys, objs, texts


def state_root(state: WorldState) -> str:
    """SHA-256 over the canonical serialization of the whole state.

    The preimage is ``codec.canonical_bytes(state.to_dict())``, assembled from
    cached fragments (see the module docstring); orgs are few and are encoded
    whole. A state whose sections and orgs are unchanged since its last root
    returns that root. Two threads rooting one state at once are safe: each
    builds its own sections and the last assignment wins.
    """
    old, old_orgs, old_root = state._fragments
    # In the key order of to_dict(): nonces, (orgs), pra, ura, users. A set
    # maps each member to itself, so its members are checked by identity too.
    sections = (
        _section(old[0], state.nonces, _entry_text),
        _section(old[1], dict(zip(state.pra, state.pra)), _pra_text, _pra_order),
        _section(old[2], dict(zip(state.ura, state.ura)), _ura_text),
        _section(old[3], state.users, _user_text),
    )
    orgs = codec.canonical_bytes({o: rec.to_dict() for o, rec in sorted(state.orgs.items())})
    if orgs == old_orgs and all(map(is_, sections, old)):
        return old_root
    # Feed the preimage section by section, so no copy of the whole is made.
    heads = (b'{"nonces":{', b'},"orgs":' + orgs + b',"pra":[', b'],"ura":[', b'],"users":{')
    digest = hashlib.sha256()
    for head, (_, _, texts) in zip(heads, sections):
        digest.update(head)
        digest.update(b",".join(texts))
    digest.update(b"}}")
    root = digest.hexdigest()
    state._fragments = (sections, orgs, root)
    return root


def role_holder_count(state: WorldState, org: str, role: str) -> int:
    return sum(1 for _, o, r in state.ura if o == org and r == role)


def expected_nonce(state: WorldState, sender: str) -> int:
    """Next-acceptable nonce: the count of transactions already applied for *sender*."""
    return state.nonces.get(sender, 0)


def apply_transaction(
    state: WorldState,
    tx: "SignedTransaction",
    *,
    height: int = 0,
    tx_index: int = 0,
) -> tuple[WorldState, list[Event]]:
    """Validate the envelope, dispatch to the contract handler, return (new state, events).

    The input state is never touched: on any failure the exception propagates
    and the caller keeps the exact value it passed in.
    """
    # Handler modules depend on the types above, so import them lazily here.
    from . import payloads, sco, scu, wallet

    record = state.users.get(tx.sender)
    if record is not None and record.public_key != tx.public_key:
        raise BadSignature("public key differs from the registered key")
    if not wallet.verify_envelope(tx):
        raise BadSignature("public key does not bind to the sender, or the signature fails")

    expected = expected_nonce(state, tx.sender)
    if tx.nonce != expected:
        raise BadNonce(f"expected nonce {expected}, got {tx.nonce}")

    payload = tx.payload
    if isinstance(payload, payloads.RegisterUserPayload):
        handler = scu.register_user
    elif isinstance(payload, payloads.UpdateUserRolePayload):
        handler = scu.update_user_role
    elif isinstance(payload, payloads.GrantPermissionPayload):
        handler = sco.grant_permission
    elif isinstance(payload, payloads.RevokePermissionPayload):
        handler = sco.revoke_permission
    else:  # pragma: no cover - payload decoding precludes this
        raise TypeError(f"unknown payload type {type(payload).__name__}")

    new_state, events = handler(state, tx, height=height, tx_index=tx_index)
    new_state.nonces[tx.sender] = expected + 1
    return new_state, events


def query_user(state: WorldState, addr: str) -> UserRecord | None:
    return state.users.get(addr)


def query_roles(state: WorldState, addr: str) -> dict[str, set[str]]:
    """All org → role-set pairs in which *addr* currently holds roles."""
    out: dict[str, set[str]] = {}
    for user, org, role in state.ura:
        if user == addr:
            out.setdefault(org, set()).add(role)
    return out

