"""The state root against a hand-written serializer of the whole state.

``state_root`` splices the entries each relation logged since the last root
into that root's sections. These tests hold it to ``sha256`` of
``oracles.reference_state_bytes``, which shares no code with the codec,
across random transaction sequences applied to sibling replicas, random
container writes over a tree of clones, concurrent roots and clones, on one
pinned state, and on states holding floats.
"""

import dataclasses
import hashlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolechain import codec, keys
from rolechain import state as state_module
from rolechain.errors import TransactionError
from rolechain.payloads import (
    GrantPermissionPayload,
    RegisterUserPayload,
    RevokePermissionPayload,
    UpdateUserRolePayload,
)
from rolechain.state import (
    Permission,
    UserRecord,
    WorldState,
    apply_transaction,
    expected_nonce,
    state_root,
)
from rolechain.store import build_genesis_state
from rolechain.wallet import sign_transaction

from conftest import PASSPHRASE, WALLET_NAMES, make_genesis_file, make_wallet
from oracles import reference_state_bytes

_WALLETS = {name: make_wallet(name) for name in WALLET_NAMES}
_GENESIS_FILE = make_genesis_file(_WALLETS)
USERS = ["alice", "bob", "carol", "dave"]
ADMINS = {"acme": "admin_acme", "globex": "admin_globex"}
ORGS = ["acme", "globex"]
RELATIONS = ("nonces", "orgs", "pra", "ura", "users")  # the preimage's key order
CATALOG = {org.org_id: sorted(org.role_catalog) for org in _GENESIS_FILE.orgs}
PERMS = [Permission("ledger", "read"), Permission("ledger", "write"), Permission("api", "exec")]


def _reference_root(state: WorldState) -> str:
    return hashlib.sha256(reference_state_bytes(state)).hexdigest()


def _assert_sections_live(state: WorldState) -> None:
    """After a root, the logs are empty and each section is its relation, freshly encoded.

    A section holds the sorted keys of its relation and, per key, the
    canonical text of that entry as the codec writes it today.
    """
    live = state.to_dict()
    expected = {
        name: (
            sorted(live[name]),
            [codec.canonical_bytes({k: v})[1:-1] for k, v in sorted(live[name].items())],
        )
        for name in ("nonces", "orgs", "users")
    }
    expected["pra"] = (sorted(state.pra), [codec.canonical_bytes(entry) for entry in live["pra"]])
    expected["ura"] = (sorted(state.ura), [codec.canonical_bytes(entry) for entry in live["ura"]])
    sections, _ = state._fragments
    for name, chunks in zip(RELATIONS, sections):
        assert not getattr(state, name).log
        assert _flattened(chunks) == expected[name]


def _flattened(chunks) -> tuple[list, list]:
    """A section's keys and texts, in order; each chunk is bounded and joined.

    A chunk holds at least a quarter of the bound unless it is the only one,
    so deletes cannot leave a section of many tiny chunks.
    """
    least = state_module._CHUNK_ENTRIES // 4 if len(chunks) > 1 else 1
    keys_, texts = [], []
    for chunk_keys, chunk_texts, joined in chunks:
        assert least <= len(chunk_keys) == len(chunk_texts) <= 2 * state_module._CHUNK_ENTRIES
        assert joined == b",".join(chunk_texts)
        keys_ += chunk_keys
        texts += chunk_texts
    return keys_, texts


def _assert_root(state: WorldState) -> None:
    assert state_root(state) == _reference_root(state)
    _assert_sections_live(state)


# One relation driven through chunk splits and drops: each op inserts below
# every key, above every key or between keys, deletes keys from anywhere, or
# takes a clone whose parent must keep its own chunks.
_CHUNK = state_module._CHUNK_ENTRIES
_chunk_ops = st.lists(
    st.tuples(
        st.sampled_from(["low", "high", "mid", "delete", "drain", "clone"]),
        st.integers(1, 3 * _CHUNK),
        st.integers(0, 2**32),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(_chunk_ops)
def test_chunked_sections_match_the_reference_through_splits_and_drops(ops):
    state = WorldState()
    parents = []
    for kind, count, seed in ops:
        rng = random.Random(seed)
        held = sorted(state.nonces)
        if kind == "clone":
            parents.append((state, _reference_root(state)))
            state = state.clone()
        elif kind == "drain" or kind == "delete":
            for key in held if kind == "drain" else rng.sample(held, min(count, len(held))):
                del state.nonces[key]
        else:
            lo, hi = (int(held[0]), int(held[-1])) if held else (10**9, 10**9)
            fresh = {
                "low": range(lo - count, lo),
                "high": range(hi + 1, hi + 1 + count),
                "mid": [rng.randrange(lo - 1, hi + 2) for _ in range(count)],
            }[kind]
            for n in fresh:
                state.nonces[f"{n:012d}"] = n % 7
        assert state_root(state) == _reference_root(state)
        keys_, texts = _flattened(state._fragments[0][0])
        assert keys_ == sorted(state.nonces)
        assert texts == [codec.canonical_bytes({k: state.nonces[k]})[1:-1] for k in keys_]
    for parent, root in parents:
        _assert_sections_live(parent)
        assert state_root(parent) == root


def _tx(op, state: WorldState):
    """Sign the call *op* describes against *state*; some are invalid and get rejected."""
    kind, who, org_i, role_i, perm_i, by_admin, skew = op
    org = ORGS[org_i]
    role = CATALOG[org][role_i % len(CATALOG[org])]
    registered = [n for n in USERS if _WALLETS[n].address in state.users]
    if kind in ("update", "add_role") and registered:
        who = USERS.index(registered[who % len(registered)])
    user = _WALLETS[USERS[who]]
    signer = ADMINS[org] if by_admin else USERS[who]
    if kind in ("register", "update", "add_role") and not registered:
        kind, signer = "register", USERS[who]
    if kind == "register":
        payload = RegisterUserPayload(
            user=user.address, public_key=user.public_key,
            password_digest=user.password_digest, org=org, requested_role=role,
        )
    elif kind in ("update", "add_role"):
        held = sorted(r for u, o, r in state.ura if u == user.address and o == org)
        old = held[0] if held and kind == "update" else "none"
        if old == role:
            role = CATALOG[org][(role_i + 1) % len(CATALOG[org])]
        payload = UpdateUserRolePayload(user=user.address, org=org, old_role=old, new_role=role)
    else:
        granted = sorted((r, p.resource, p.action) for o, r, p in state.pra if o == org)
        permission = PERMS[perm_i]
        if kind == "revoke" and granted:
            role, resource, action = granted[perm_i % len(granted)]
            permission = Permission(resource, action)
        cls = GrantPermissionPayload if kind == "grant" else RevokePermissionPayload
        payload = cls(org=org, role=role, permission=permission)
    wallet = _WALLETS[signer]
    nonce = max(0, expected_nonce(state, wallet.address) + skew)
    return sign_transaction(wallet, PASSPHRASE, wallet.address, nonce, payload)


_ops = st.tuples(
    st.sampled_from(["register", "update", "add_role", "grant", "revoke", "adopt"]),
    st.integers(0, len(USERS) - 1),
    st.integers(0, len(ORGS) - 1),
    st.integers(0, 3),
    st.integers(0, len(PERMS) - 1),
    st.sampled_from([True, True, True, False]),  # signed by the org admin
    st.sampled_from([0, 0, 0, 0, 0, 1, -1]),  # a nonzero skew is a rejected nonce
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ops, min_size=1, max_size=30))
def test_state_root_matches_reference_across_replicas(ops):
    genesis = build_genesis_state(_GENESIS_FILE)
    # Two replicas share one genesis object, a third has its own.
    replicas = [genesis, genesis, build_genesis_state(_GENESIS_FILE)]
    for height, op in enumerate(ops, start=1):
        if op[0] == "adopt":
            # A replica restarts from a clone of another, as a node restart does.
            replicas[height % 3] = replicas[(height + 1) % 3].clone()
            _assert_root(replicas[height % 3])
            continue
        tx = _tx(op, replicas[0])
        for i, rep in enumerate(replicas):
            _assert_root(rep)
            try:
                replicas[i], _ = apply_transaction(rep, tx, height=height)
            except TransactionError:
                pass  # rejected: the replica keeps its state
            _assert_root(replicas[i])
        assert len({state_root(r) for r in replicas}) == 1


def _seeded_state(n_users: int, seed: int) -> WorldState:
    rng = random.Random(seed)
    state = build_genesis_state(_GENESIS_FILE)
    for i in range(n_users):
        raw = hashlib.sha256(f"root-vector:{seed}:{i}".encode()).digest()
        _, public_key = keys.keypair_from_seed(raw)
        addr = keys.derive_address(public_key)
        state.users[addr] = UserRecord(
            address=addr,
            public_key=public_key.hex(),
            password_digest=hashlib.sha256(b"pw:" + raw).hexdigest(),
            registered_at=(1 + i // 20, i % 20),
        )
        state.nonces[addr] = 1 + rng.randrange(3)
        org = rng.choice(ORGS)
        state.ura.add((addr, org, rng.choice(CATALOG[org])))
    for org in ORGS:
        for role in CATALOG[org]:
            for perm in PERMS:
                if rng.random() < 0.5:
                    state.pra.add((org, role, perm))
        state.nonces[_WALLETS[ADMINS[org]].address] = rng.randrange(100)
    return state


def test_state_root_pinned_vector():
    state = _seeded_state(200, seed=7)
    assert len(state.users) == 200
    assert state_root(state) == _reference_root(state)
    # frozen once from the reference serializer; must never drift
    assert _reference_root(state) == "d755d3a952975b3a9f532eecccc4bd132327ab700a6f6b4f20ba2f1b725fcecf"


def test_state_root_is_unchanged_by_a_warm_cache():
    state = _seeded_state(50, seed=8)
    first = state_root(state)
    clone = state.clone()
    assert state_root(clone) == first
    addr = next(iter(clone.users))
    clone.nonces[addr] += 1
    clone.ura.add((addr, "globex", "analyst"))
    assert state_root(clone) == _reference_root(clone) != first
    assert state_root(state) == first


def test_state_root_follows_a_changed_org():
    state = _seeded_state(20, seed=11)
    first = state_root(state)
    acme = state.orgs["acme"]
    state.orgs["acme"] = dataclasses.replace(acme, admins=acme.admins | {"ab" * 20})
    assert state_root(state) == _reference_root(state) != first


def test_a_root_encodes_only_the_entries_written_since_the_last(monkeypatch):
    state = _seeded_state(20, seed=15)
    state_root(state)
    addr = sorted(state.users)[0]
    state.nonces[addr] += 1
    state.ura.add((addr, "globex", "analyst"))
    encoded = []
    encode = codec.canonical_bytes
    monkeypatch.setattr(codec, "canonical_bytes", lambda obj: encoded.append(obj) or encode(obj))
    assert state_root(state) == _reference_root(state)
    # One nonce entry and one ura triple; no org, user or pra entry.
    assert encoded == [{addr: state.nonces[addr]}, (addr, "globex", "analyst")]
    encoded.clear()
    assert state_root(state.clone()) == _reference_root(state) and encoded == []


def _float_max_holders(state: WorldState) -> WorldState:
    # RolePolicy refuses a float, so plant it past the constructor, in a copy.
    acme = state.orgs["acme"]
    policy = dataclasses.replace(acme.role_catalog["contractor"])
    object.__setattr__(policy, "max_holders", 2.0)
    catalog = {**acme.role_catalog, "contractor": policy}
    state.orgs["acme"] = dataclasses.replace(acme, role_catalog=catalog)
    assert state.orgs["acme"].role_catalog["contractor"].max_holders == 2.0
    return state


def _float_nonce(state: WorldState) -> WorldState:
    state.nonces[next(iter(state.nonces))] = 1.0
    return state


def _float_in_ura(state: WorldState) -> WorldState:
    state.ura.add((next(iter(state.users)), "acme", 1.5))
    return state


def _float_registered_at(state: WorldState) -> WorldState:
    addr, rec = next(iter(state.users.items()))
    state.users[addr] = UserRecord(rec.address, rec.public_key, rec.password_digest, (1.0, 0))
    return state


@pytest.mark.parametrize(
    "plant", [_float_max_holders, _float_nonce, _float_in_ura, _float_registered_at]
)
def test_float_anywhere_in_state_raises_type_error(plant):
    state = _seeded_state(5, seed=9)
    state_root(state)  # warm the fragment cache first
    planted = plant(state.clone())
    with pytest.raises(TypeError):
        state_root(planted)


def test_equal_value_of_another_type_is_encoded_afresh():
    state = _seeded_state(5, seed=10)
    addr = next(iter(state.users))
    state.nonces[addr] = 1
    state_root(state)
    state.nonces[addr] = True  # equal to 1, but canonical JSON spells it "true"
    assert state_root(state) == _reference_root(state)


# Random programs over a tree of clones. Each write goes through a container
# mutator; each root is held to the reference. The pools mix entries the
# seeded state holds with new ones, and equal values of another type (1 and
# True, (1, 0) and (True, 0)) are encoded differently, so a write of one
# over the other must reach the root.
_SEEDED = _seeded_state(3, seed=12)
_ADDRS = sorted(_SEEDED.users)[:2] + ["aa" * 20, "bb" * 20]
_KEYS = {"nonces": _ADDRS, "users": _ADDRS, "orgs": ["acme", "globex", "initech"]}
_VALUES = {
    "nonces": [0, 1, True, 2, False],
    "users": [
        UserRecord("aa" * 20, "11" * 32, "22" * 32, at) for at in ((1, 0), (True, 0), (2, 3))
    ],
    "orgs": [
        _SEEDED.orgs["acme"],
        _SEEDED.orgs["globex"],
        dataclasses.replace(_SEEDED.orgs["acme"], admins=frozenset({"ab" * 20})),
    ],
}
_MEMBERS = {
    "ura": sorted(_SEEDED.ura)[:2] + [(a, "globex", "analyst") for a in _ADDRS[1:3]],
    "pra": sorted(_SEEDED.pra, key=str)[:2] + [("acme", "member", p) for p in PERMS[:2]],
}
# The mutators that log, per kind of relation; every other one must raise.
_LOGGED = {dict: ("set", "del", "del+set"), set: ("add", "discard", "remove", "discard+add")}


def _refused_calls(container, key, value):
    if isinstance(container, set):
        return {
            "clear": (), "pop": (), "update": ({key},), "difference_update": ({key},),
            "intersection_update": (set(),), "symmetric_difference_update": ({key},),
            "__ior__": ({key},), "__iand__": (set(),), "__isub__": ({key},), "__ixor__": ({key},),
        }
    return {
        "clear": (), "pop": (key,), "popitem": (), "setdefault": (key, value),
        "update": ({key: value},), "__ior__": ({key: value},),
    }


def _write(state: WorldState, relation: str, mutator: int, pick: int, refused: int) -> None:
    """Apply one mutator to *relation*: a logged one, or one that must raise and change nothing."""
    container = getattr(state, relation)
    plain = set if isinstance(container, set) else dict
    if plain is set:
        key = value = _MEMBERS[relation][pick % len(_MEMBERS[relation])]
    else:
        key = _KEYS[relation][pick % len(_KEYS[relation])]
        value = _VALUES[relation][pick // 4 % len(_VALUES[relation])]
    if mutator < len(_LOGGED[plain]):
        for op in _LOGGED[plain][mutator].split("+"):
            if op == "set":
                container[key] = value
            elif op in ("del", "remove") and key not in container:
                pass  # each raises KeyError on a missing key
            elif op == "del":
                del container[key]
            else:
                getattr(container, op)(key)
        return
    calls = _refused_calls(container, key, value)
    name = sorted(calls)[refused % len(calls)]
    before, log = plain(container), dict(container.log)
    with pytest.raises(TypeError):
        getattr(container, name)(*calls[name])
    assert container == before and container.log == log


_programs = st.lists(
    st.one_of(
        st.tuples(st.just("clone"), st.integers(0, 7)),
        st.tuples(st.just("root"), st.integers(0, 7)),
        st.tuples(
            st.just("write"), st.integers(0, 7), st.sampled_from(RELATIONS),
            st.integers(0, 5), st.integers(0, 19), st.integers(0, 9),
        ),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_programs)
def test_state_root_follows_every_mutator_across_a_tree_of_clones(program):
    seeded = _seeded_state(3, seed=12)
    # One tree grows from a state built by writes, one from a decoded copy.
    nodes = [seeded, WorldState.from_dict(_SEEDED.to_dict())]
    for kind, at, *write in program:
        node = nodes[at % len(nodes)]
        if kind == "clone":
            nodes.append(node.clone())
        elif kind == "root":
            _assert_root(node)
        else:
            _write(node, *write)
    for node in nodes:
        _assert_root(node)


def test_concurrent_roots_and_a_clone_of_one_fresh_state_agree():
    """Two threads root one freshly written state while the main thread clones and roots it."""
    base = _seeded_state(100, seed=13)
    state_root(base)
    addrs = sorted(base.users)
    rounds = 300
    states, expected = [], []
    for i in range(rounds):
        state = base.clone()
        state.nonces[addrs[i % len(addrs)]] = 1000 + i
        state.ura.add((addrs[(i * 7) % len(addrs)], "globex", "analyst"))
        states.append(state)
        expected.append(_reference_root(state))
    barrier = threading.Barrier(3, timeout=60)
    results = [[None] * rounds for _ in range(3)]
    errors = []

    def rooter(column):
        try:
            for i, state in enumerate(states):
                barrier.wait()
                results[column][i] = state_root(state)
        except Exception as exc:  # noqa: BLE001 - surfaced by the assertion below
            errors.append(exc)
            barrier.abort()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so the roots interleave
    workers = [threading.Thread(target=rooter, args=(c,)) for c in (0, 1)]
    try:
        for worker in workers:
            worker.start()
        for i, state in enumerate(states):
            barrier.wait()
            results[2][i] = state_root(state.clone())
    except BaseException:
        barrier.abort()  # release the workers; after the last round it would break their wake-up
        raise
    finally:
        for worker in workers:
            worker.join(timeout=60)
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors
    assert results == [expected] * 3
    for state in states[:20]:
        _assert_sections_live(state)


class _ReaderBetweenSteps(dict):
    """A relation's log that runs *reader* once, in the middle of a root or a clone.

    With ``at="read"`` it runs when the log is first copied, so after the
    reading root or clone has taken its earlier steps; with ``at="clear"``
    it runs once the log is cleared, before the root's remaining steps.
    """

    def __init__(self, log, reader, at):
        super().__init__(log)
        self.reader, self.at = reader, at

    def __iter__(self):  # a dict subclass with its own __iter__ is copied through keys()
        return super().__iter__()

    def keys(self):
        if self.at == "read":
            self._run()
        return super().keys()

    def clear(self):
        super().clear()
        if self.at == "clear":
            self._run()

    def _run(self):
        reader, self.reader = self.reader, None
        if reader is not None:
            reader()


@pytest.mark.parametrize("first, at", [("root", "read"), ("root", "clear"), ("clone", "read")])
def test_a_root_and_a_clone_between_two_steps_of_another_agree(first, at):
    """The ordering invariant of state_root, at the two points a thread switch could break it."""
    state = _seeded_state(20, seed=14)
    state_root(state)
    state = state.clone()
    addr = sorted(state.users)[0]
    state.nonces[addr] += 1
    state.ura.add((addr, "globex", "analyst"))
    expected = _reference_root(state)
    seen = []

    def reader():
        seen.append(state_root(state))
        seen.append(state_root(state.clone()))

    state.nonces.log = _ReaderBetweenSteps(state.nonces.log, reader, at)
    seen.append(state_root(state if first == "root" else state.clone()))
    assert seen == [expected] * 3
