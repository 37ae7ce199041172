"""The replicated identity state: users, organizations, role and permission relations.

A published world state is a value. A fold over transactions clones it once
and runs :func:`execute_transaction` on the copy, which checks a transaction
and then writes it, so a raise has written nothing. Replaying a chain of
blocks from the genesis state reconstructs the exact same value on every
node, which is what the per-block ``state_root`` digests pin down.

``state_root`` hashes the canonical JSON of ``WorldState.to_dict()`` without
building it. Each relation (``nonces``, ``orgs``, ``pra``, ``ura``,
``users``) is a container that records every write in its change log: the
key and its new value, or that it is gone. A root keeps, per relation, a
section: the sorted keys and the canonical text of each entry, cut into
chunks of a bounded number of entries, each holding its texts joined by
commas. It splices the logged entries into the chunks its parent left and
re-joins only the chunks they fall in, so only what changed is encoded,
no key is scanned, and a write copies only the list of chunks, never a
whole section. A state built from plain containers (genesis,
``from_dict``, the constructor) starts with every entry logged, so its first
root runs the same path. This relies on three invariants: records are
immutable, every write to a relation goes through its log (a bulk mutator
raises instead), and a text is a pure function of its key and value.

Two relations carry the access-control model:

* ``ura`` — (user address, org id, role id): who holds which role where. It
  also keeps two read indexes, (user, org) → roles and (org, role) → holder
  count, which nothing hashed reads.
* ``pra`` — (org id, role id, permission): what each role may do.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from . import codec
from .errors import BadNonce, BadSignature

if TYPE_CHECKING:  # pragma: no cover
    from .payloads import SignedTransaction

MAX_ID_LENGTH = 64
ROLE_NONE = "none"  # reserved: never a catalog role, legal only as an update's old_role
# Entries per chunk of a state_root section (see _chunked): a write re-joins
# only the chunks its keys fall in, so this bounds the bytes one key costs.
# Bounds of 64, 128 and 256 timed alike at 3,200 users; the smallest is kept.
_CHUNK_ENTRIES = 64

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


@dataclass(frozen=True, order=True)
class Permission(codec.Record):
    """A (resource, action) capability, e.g. ("ledger", "read"), ordered by those fields."""

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

    def __post_init__(self):
        _check_id(self.role_id, "role id")
        if self.role_id == ROLE_NONE:
            raise ValueError(f"role id {ROLE_NONE!r} is reserved")
        if self.max_holders is not None:
            if codec.require_int(self.max_holders, f"max_holders of role {self.role_id!r}") < 1:
                raise ValueError("max_holders must be positive or None")


def _admin_set(addrs: list) -> frozenset[str]:
    """Admin addresses, from a sorted list with no repeats."""
    admins = [codec.require_hex(a, 20, "admin address") for a in addrs]
    if type(addrs) is not list or admins != sorted(set(admins)):
        raise ValueError(f"admins must be a sorted list with no repeats, not {addrs!r}")
    return frozenset(admins)


@dataclass(frozen=True)
class OrgRecord(codec.Record):
    """An organization fixed at genesis: its admins and its role catalog, keyed by role id."""

    org_id: str
    admins: frozenset[str]
    role_catalog: dict[str, RolePolicy]

    decoders = {"admins": _admin_set}

    def __post_init__(self):
        _check_id(self.org_id, "org id")
        if not self.admins:
            raise ValueError(f"org {self.org_id!r} has no admins")
        for key, policy in self.role_catalog.items():
            if key != policy.role_id:
                raise ValueError(f"org {self.org_id!r} lists role {policy.role_id!r} under key {key!r}")


@dataclass(frozen=True)
class UserRecord(codec.Record):
    address: str
    public_key: str
    password_digest: str
    registered_at: tuple[int, int]  # (block height, tx index)


def _event_attributes(attrs: dict) -> tuple[tuple[str, Any], ...]:
    """An event's attributes: ids, and a grant's or revoke's permission."""
    return tuple(sorted(
        (k, Permission.from_dict(v) if k == "permission" else _check_id(v, k)) for k, v in attrs.items()
    ))


@dataclass(frozen=True)
class Event(codec.Record):
    """One immutable audit record, anchored to its (block height, tx index).

    Its wire form holds its attributes as an object, so it writes its own.
    """

    kind: str
    attributes: tuple[tuple[str, Any], ...]
    height: int
    tx_index: int

    decoders = {"attributes": _event_attributes}

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")

    @classmethod
    def make(cls, kind: str, attributes: dict, height: int, tx_index: int) -> "Event":
        return cls(kind, tuple(sorted(attributes.items())), height, tx_index)

    @property
    def attrs(self) -> dict:
        return dict(self.attributes)

    def to_dict(self) -> dict:
        return codec.to_wire({
            "attributes": self.attrs,
            "height": self.height,
            "kind": self.kind,
            "tx_index": self.tx_index,
        })


_ABSENT = object()


class _LoggedDict(dict):
    """A dict that records each written key, with its new value, in ``log``."""

    __slots__ = ("log",)

    def __init__(self, items, log: dict):
        super().__init__(items)
        self.log = log

    def __setitem__(self, key, value):
        dict.__setitem__(self, key, value)
        self.log[key] = value

    def __delitem__(self, key):
        dict.__delitem__(self, key)
        self.log[key] = _ABSENT

    def _unlogged(self, *args, **kwargs):
        raise TypeError("a state relation is written one entry at a time")

    clear = pop = popitem = setdefault = update = __ior__ = _unlogged


class _LoggedSet(set):
    """A set that records each added or removed member in ``log``.

    The log maps a member to the object now held, or to ``_ABSENT``.
    """

    __slots__ = ("log",)

    def __init__(self, items, log: dict):
        super().__init__(items)
        self.log = log

    def add(self, member):
        if member not in self:
            set.add(self, member)
            self.log[member] = member

    def discard(self, member):
        if member in self:
            self.remove(member)

    def remove(self, member):
        set.remove(self, member)
        self.log[member] = _ABSENT

    _unlogged = _LoggedDict._unlogged
    clear = pop = update = difference_update = intersection_update = _unlogged
    symmetric_difference_update = __ior__ = __iand__ = __isub__ = __ixor__ = _unlogged


class _UraSet(_LoggedSet):
    """The ``ura`` relation, with two read indexes kept on every add and remove.

    ``roles`` maps (user, org) to the tuple of roles held there, and
    ``holders`` maps (org, role) to its holder count. Index values are
    immutable, so a copy of another ``_UraSet`` (a clone) copies its two
    dicts shallowly, as it copies the set, and never rebuilds them; a
    relation assigned whole builds them in one pass. An entry is overwritten,
    never deleted, so a key whose last role or holder went stays, holding
    ``()`` or 0: CPython copies a dict that has a deleted slot entry by
    entry, several times slower than one without.
    """

    __slots__ = ("roles", "holders")

    def __init__(self, items, log: dict):
        super().__init__(items, log)
        if isinstance(items, _UraSet):
            self.roles, self.holders = dict(items.roles), dict(items.holders)
        else:
            self.roles, self.holders = {}, {}
            for member in self:
                self._index(member, 1)

    def add(self, member):
        if member not in self:
            set.add(self, member)
            self.log[member] = member
            self._index(member, 1)

    def remove(self, member):
        super().remove(member)
        self._index(member, -1)

    def _index(self, member: tuple, step: int) -> None:
        user, org, role = member
        held = self.roles.get((user, org), ())
        self.roles[user, org] = held + (role,) if step > 0 else tuple(r for r in held if r != role)
        self.holders[org, role] = self.holders.get((org, role), 0) + step


# The relations in the key order of to_dict(), which is the preimage's order.
_RELATIONS = ("nonces", "orgs", "pra", "ura", "users")
_SETS = {"pra": _LoggedSet, "ura": _UraSet}


@dataclass
class WorldState(codec.Record):
    """The full replicated state: a record of the relations in the module docstring."""

    users: dict[str, UserRecord] = field(default_factory=dict)
    orgs: dict[str, OrgRecord] = field(default_factory=dict)
    ura: set[tuple[str, str, str]] = field(default_factory=set)
    pra: set[tuple[str, str, Permission]] = field(default_factory=set)
    nonces: dict[str, int] = field(default_factory=dict)

    # What the last state_root over this state or an ancestor left: one
    # section (a list of chunks) per relation, and the root. Not a field, so
    # never compared; replaced, never mutated, so clones share it.
    _fragments = (((),) * len(_RELATIONS), None)

    def __post_init__(self):
        if any(key != user.address for key, user in self.users.items()):
            raise ValueError("a UserRecord is not under its own address")
        if any(key != org.org_id for key, org in self.orgs.items()):
            raise ValueError("an OrgRecord is not under its own org_id")
        for row in (*self.ura, *(row[:2] for row in self.pra)):
            for i in row:
                _check_id(i, "a ura or pra id")
        if any(n < 0 for n in self.nonces.values()):
            raise ValueError("a nonce is negative")

    def __setattr__(self, name, value):
        # A relation assigned whole becomes a logged container with every
        # entry logged, so its first root encodes it through the one path.
        if name in _SETS:
            value = _SETS[name](value, dict(zip(value, value)))
        elif name in _RELATIONS:
            value = _LoggedDict(value, dict(value))
        object.__setattr__(self, name, value)

    def clone(self) -> "WorldState":
        # Records and index values are immutable, so container-level copies are
        # enough. The logs are read before _fragments, as state_root requires.
        logs = [dict(getattr(self, name).log) for name in _RELATIONS]
        new = object.__new__(WorldState)
        new._fragments = self._fragments
        for name, log in zip(_RELATIONS, logs):
            old = getattr(self, name)
            object.__setattr__(new, name, type(old)(old, log))
        return new


def _entry_text(key: Any, value: Any) -> bytes:
    """Canonical bytes of the object entry ``"key":value`` of a dict relation."""
    return codec.canonical_bytes({key: value})[1:-1]


def _member_text(_key, member: tuple) -> bytes:
    """Canonical bytes of one member of a set relation."""
    return codec.canonical_bytes(member)


# Per relation, its entry encoder.
_ENCODERS = (_entry_text, _entry_text, _member_text, _member_text, _entry_text)
_HEADS = (b'{"nonces":{', b'},"orgs":{', b'},"pra":[', b'],"ura":[', b'],"users":{')


def _first_key(chunk: tuple) -> Any:
    return chunk[0][0]


def _chunked(keys: list, texts: list) -> list[tuple]:
    """The chunk for sorted *keys* and their *texts*: none when empty, several when too long.

    A chunk is (keys, texts, its texts joined by commas). One that holds more
    than ``2 * _CHUNK_ENTRIES`` entries is split into pieces of at most
    ``_CHUNK_ENTRIES``.
    """
    n = len(keys)
    if n <= 2 * _CHUNK_ENTRIES:
        return [(keys, texts, b",".join(texts))] if n else []
    count = -(-n // _CHUNK_ENTRIES)
    cuts = [n * j // count for j in range(count + 1)]
    return [(keys[a:b], texts[a:b], b",".join(texts[a:b])) for a, b in zip(cuts, cuts[1:])]


def _splice(section: list, changes: dict, encode) -> list:
    """*section* (a list of chunks) with *changes* (key -> value or ``_ABSENT``) applied.

    Neither *section* nor any of its chunks is mutated: the result is a new
    list that shares every chunk no changed key falls in. Each changed key
    is bisected to its chunk (the last whose first key is not above it),
    and each touched chunk is rebuilt, re-joined, split, merged or dropped,
    so a root costs O(change · log n) Python steps plus the copies and
    joins of the chunks it touched.
    """
    touched: dict[int, list] = {}
    for key in sorted(changes):
        at = max(bisect_right(section, key, key=_first_key) - 1, 0)
        touched.setdefault(at, []).append(key)
    new_section = list(section)
    for at in sorted(touched, reverse=True):  # a later chunk first, so earlier indexes hold
        keys, texts, _ = new_section[at] if new_section else ([], [], b"")
        new_keys: list = []
        new_texts: list = []
        lo = 0
        for key in touched[at]:
            value = changes[key]
            i = bisect_left(keys, key, lo)
            if i > lo:
                new_keys += keys[lo:i]
                new_texts += texts[lo:i]
            lo = i + (i < len(keys) and keys[i] == key)
            if value is not _ABSENT:
                new_keys.append(key)
                new_texts.append(encode(key, value))
        new_keys += keys[lo:]
        new_texts += texts[lo:]
        start, end = at, at + 1
        # A chunk shrunk below a quarter of the bound takes in its next
        # neighbour (the last one, its previous), so deletes leave no run of
        # tiny chunks.
        if 0 < len(new_keys) < _CHUNK_ENTRIES // 4 and len(new_section) > 1:
            if end < len(new_section):
                next_keys, next_texts, _ = new_section[end]
                new_keys += next_keys
                new_texts += next_texts
                end += 1
            else:
                start -= 1
                prev_keys, prev_texts, _ = new_section[start]
                new_keys = prev_keys + new_keys
                new_texts = prev_texts + new_texts
        new_section[start:end] = _chunked(new_keys, new_texts)
    return new_section


def state_root(state: WorldState) -> str:
    """SHA-256 over the canonical serialization of the whole state.

    The preimage is ``codec.canonical_bytes(state.to_dict())``, assembled
    from the chunks the last root left, with the entries logged since
    spliced in (see the module docstring). A state with empty logs returns
    its last root.

    Two threads may root one state at once, and a third may clone it
    meanwhile. Ordering invariant: a root (and a clone) reads the logs
    before ``_fragments``, and a root publishes ``_fragments`` before it
    clears the logs. So a reader that finds a log cleared also finds the
    sections that already hold its changes, and a reader that finds a log
    uncleared applies it again, which is idempotent. A published chunk or
    section is never mutated.
    """
    relations = [getattr(state, name) for name in _RELATIONS]
    logs = [dict(relation.log) for relation in relations]
    sections, root = state._fragments
    if root is not None and not any(logs):
        return root
    sections = tuple(
        _splice(section, log, encode) if log else section
        for section, log, encode in zip(sections, logs, _ENCODERS)
    )
    # Feed the preimage chunk by chunk, so no copy of a whole section is made.
    digest = hashlib.sha256()
    for head, section in zip(_HEADS, sections):
        digest.update(head)
        for i, (_, _, joined) in enumerate(section):
            if i:
                digest.update(b",")
            digest.update(joined)
    digest.update(b"}}")
    root = digest.hexdigest()
    state._fragments = (sections, root)
    for relation in relations:
        relation.log.clear()
    return root


def role_holder_count(state: WorldState, org: str, role: str) -> int:
    return state.ura.holders.get((org, role), 0)


def roles_held(state: WorldState, user: str, org: str) -> tuple[str, ...]:
    return state.ura.roles.get((user, org), ())


def expected_nonce(state: WorldState, sender: str) -> int:
    """Next-acceptable nonce: the count of transactions already applied for *sender*."""
    return state.nonces.get(sender, 0)


def execute_transaction(
    work: WorldState, tx: "SignedTransaction", *, height: int, tx_index: int, signed: bool = False
) -> list[Event]:
    """Check *tx* against *work*, then write its change into *work*; return its events.

    Every check runs before the first write, so on a raise *work* is as it was.
    With *signed*, the caller already found *tx*'s envelope valid
    (``wallet.verify_envelopes``), so only that check is skipped.
    """
    # Handler modules depend on the types above, so import them lazily here.
    from . import payloads, sco, scu, wallet

    record = work.users.get(tx.sender)
    if record is not None and record.public_key != tx.public_key:
        raise BadSignature("public key differs from the registered key")
    if not signed and not wallet.verify_envelope(tx):
        raise BadSignature("public key does not bind to the sender, or the signature fails")

    expected = expected_nonce(work, tx.sender)
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

    events = handler(work, tx, height=height, tx_index=tx_index)
    work.nonces[tx.sender] = expected + 1
    return events


def apply_transaction(
    state: WorldState, tx: "SignedTransaction", *, height: int = 0, tx_index: int = 0
) -> tuple[WorldState, list[Event]]:
    """(new state, events) of *tx* on a copy of *state*, which is never touched."""
    new = state.clone()
    return new, execute_transaction(new, tx, height=height, tx_index=tx_index)


def query_user(state: WorldState, addr: str) -> UserRecord | None:
    return state.users.get(addr)


def query_roles(state: WorldState, addr: str) -> dict[str, set[str]]:
    """All org → role-set pairs in which *addr* currently holds roles."""
    return {org: set(held) for org in state.orgs if (held := roles_held(state, addr, org))}

