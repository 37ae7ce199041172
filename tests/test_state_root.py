"""The state root against a hand-written serializer of the whole state.

``state_root`` assembles its preimage from cached per-entry fragments. These
tests hold it to ``sha256`` of ``oracles.reference_state_bytes``, which
shares no code with the codec, across random transaction sequences applied
to sibling replicas, on one pinned state, and on states holding floats.
"""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolechain import keys
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
CATALOG = {org.org_id: sorted(org.role_catalog) for org in _GENESIS_FILE.orgs}
PERMS = [Permission("ledger", "read"), Permission("ledger", "write"), Permission("api", "exec")]


def _reference_root(state: WorldState) -> str:
    return hashlib.sha256(reference_state_bytes(state)).hexdigest()


def _assert_sections_live(state: WorldState) -> None:
    """After a root, the cached fragments cover exactly the live entries."""
    sections, _, _ = state._fragments
    lives = (
        state.nonces,
        {t: t for t in state.pra},
        {t: t for t in state.ura},
        state.users,
    )
    for (keys_, objs, texts), live in zip(sections, lives):
        assert len(keys_) == len(objs) == len(texts) == len(live)
        assert all(live[k] is o for k, o in zip(keys_, objs))


def _assert_root(state: WorldState) -> None:
    assert state_root(state) == _reference_root(state)
    _assert_sections_live(state)


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


def _float_max_holders(state: WorldState) -> WorldState:
    d = state.to_dict()
    d["orgs"]["acme"]["role_catalog"]["contractor"]["max_holders"] = 2.0
    planted = WorldState.from_dict(d)
    assert planted.orgs["acme"].role_catalog["contractor"].max_holders == 2.0
    return planted


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
