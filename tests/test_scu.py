import pytest

from rolechain import scu
from rolechain.errors import (
    AddressMismatch,
    AlreadyRegistered,
    NoSuchAssignment,
    NotAuthorized,
    NotEligible,
    NotRegistered,
    RoleFull,
    UnknownOrg,
    UnknownRole,
)
from rolechain.payloads import RegisterUserPayload
from rolechain.state import apply_transaction

from oracles import fold_events, on_a_copy

register_user = on_a_copy(scu.register_user)
update_user_role = on_a_copy(scu.update_user_role)


def _register_chain(genesis_state, txf, *specs):
    state = genesis_state
    events = []
    for name, org, role in specs:
        state, evs = apply_transaction(state, txf.register(name, org, role))
        events.extend(evs)
    return state, events


# --- register_user -----------------------------------------------------------

def test_register_emits_one_user_registered_event(genesis_state, txf, wallets):
    tx = txf.register("alice", "acme", "member")
    new, events = register_user(genesis_state, tx, height=3, tx_index=1)
    assert len(events) == 1
    e = events[0]
    assert e.kind == "UserRegistered"
    assert e.attrs == {"user": wallets["alice"].address, "org": "acme", "role": "member"}
    assert (e.height, e.tx_index) == (3, 1)
    assert new.users[wallets["alice"].address].registered_at == (3, 1)


def test_register_twice_fails(genesis_state, txf):
    tx = txf.register("alice", "acme", "member")
    s1, _ = register_user(genesis_state, tx)
    again = txf.register("alice", "acme", "member", nonce=1)
    with pytest.raises(AlreadyRegistered):
        register_user(s1, again)


def test_register_unknown_org(genesis_state, txf):
    with pytest.raises(UnknownOrg):
        register_user(genesis_state, txf.register("alice", "initech", "member"))


def test_register_unknown_role(genesis_state, txf):
    with pytest.raises(UnknownRole):
        register_user(genesis_state, txf.register("alice", "acme", "wizard"))


def test_register_non_self_assignable_role(genesis_state, txf):
    with pytest.raises(NotEligible):
        register_user(genesis_state, txf.register("alice", "acme", "auditor"))


def test_register_role_at_capacity(genesis_state, txf):
    # contractor has max_holders=2
    s, _ = _register_chain(
        genesis_state, txf, ("alice", "acme", "contractor"), ("bob", "acme", "contractor")
    )
    with pytest.raises(RoleFull):
        register_user(s, txf.register("carol", "acme", "contractor"))


def test_register_address_mismatch(genesis_state, txf, wallets):
    alice, bob = wallets["alice"], wallets["bob"]
    payload = RegisterUserPayload(
        user=bob.address, public_key=alice.public_key,
        password_digest=alice.password_digest, org="acme", requested_role="member",
    )
    tx = txf.sign("alice", payload)
    with pytest.raises(AddressMismatch):
        register_user(genesis_state, tx)


def test_register_payload_key_must_match_envelope(genesis_state, txf, wallets):
    alice, bob = wallets["alice"], wallets["bob"]
    payload = RegisterUserPayload(
        user=alice.address, public_key=bob.public_key,
        password_digest=alice.password_digest, org="acme", requested_role="member",
    )
    tx = txf.sign("alice", payload)
    with pytest.raises(AddressMismatch):
        register_user(genesis_state, tx)


# --- update_user_role ----------------------------------------------------------

def test_admin_moves_user_to_non_self_assignable_role(genesis_state, txf, wallets):
    s, _ = _register_chain(genesis_state, txf, ("alice", "acme", "member"))
    tx = txf.update("admin_acme", "alice", "acme", "member", "auditor")
    new, events = update_user_role(s, tx, height=2, tx_index=0)
    alice = wallets["alice"].address
    assert (alice, "acme", "auditor") in new.ura
    assert (alice, "acme", "member") not in new.ura
    assert [e.kind for e in events] == ["UserRoleUpdated"]
    assert events[0].attrs == {
        "user": alice, "org": "acme", "old_role": "member", "new_role": "auditor",
    }


def test_self_update_to_self_assignable_role(genesis_state, txf, wallets):
    s, _ = _register_chain(genesis_state, txf, ("alice", "acme", "member"))
    new, _ = update_user_role(s, txf.update("alice", "alice", "acme", "member", "contractor"))
    assert (wallets["alice"].address, "acme", "contractor") in new.ura


def test_self_update_to_privileged_role_rejected(genesis_state, txf):
    s, _ = _register_chain(genesis_state, txf, ("alice", "acme", "member"))
    with pytest.raises(NotAuthorized):
        update_user_role(s, txf.update("alice", "alice", "acme", "member", "auditor"))


def test_stranger_cannot_update(genesis_state, txf):
    s, _ = _register_chain(
        genesis_state, txf, ("alice", "acme", "member"), ("bob", "acme", "member")
    )
    with pytest.raises(NotAuthorized):
        update_user_role(s, txf.update("bob", "alice", "acme", "member", "contractor"))


def test_update_unregistered_user(genesis_state, txf):
    with pytest.raises(NotRegistered):
        update_user_role(
            genesis_state, txf.update("admin_acme", "alice", "acme", "member", "auditor")
        )


def test_update_missing_assignment(genesis_state, txf):
    s, _ = _register_chain(genesis_state, txf, ("alice", "acme", "member"))
    with pytest.raises(NoSuchAssignment):
        update_user_role(s, txf.update("admin_acme", "alice", "acme", "contractor", "auditor"))


def test_update_unknown_target_role(genesis_state, txf):
    s, _ = _register_chain(genesis_state, txf, ("alice", "acme", "member"))
    with pytest.raises(UnknownRole):
        update_user_role(s, txf.update("admin_acme", "alice", "acme", "member", "wizard"))


def test_update_to_full_role(genesis_state, txf):
    s, _ = _register_chain(
        genesis_state, txf, ("alice", "acme", "member"), ("bob", "acme", "member")
    )
    s, _ = update_user_role(s, txf.update("admin_acme", "alice", "acme", "member", "owner"))
    with pytest.raises(RoleFull):
        update_user_role(s, txf.update("admin_acme", "bob", "acme", "member", "owner"))


def test_admin_adds_role_with_none_sentinel(genesis_state, txf, wallets):
    s, _ = _register_chain(genesis_state, txf, ("alice", "acme", "member"))
    new, events = update_user_role(s, txf.update("admin_acme", "alice", "acme", "none", "auditor"))
    alice = wallets["alice"].address
    assert (alice, "acme", "member") in new.ura
    assert (alice, "acme", "auditor") in new.ura
    assert events[0].attrs["old_role"] == "none"


def test_none_sentinel_is_admin_only(genesis_state, txf):
    s, _ = _register_chain(genesis_state, txf, ("alice", "acme", "member"))
    with pytest.raises(NotAuthorized):
        update_user_role(s, txf.update("alice", "alice", "acme", "none", "contractor"))


def test_sentinel_add_into_second_org(genesis_state, txf, wallets):
    s, _ = _register_chain(genesis_state, txf, ("alice", "acme", "member"))
    new, _ = update_user_role(s, txf.update("admin_globex", "alice", "globex", "none", "analyst"))
    assert (wallets["alice"].address, "globex", "analyst") in new.ura


def test_failed_update_emits_no_event_and_changes_nothing(genesis_state, txf):
    s, _ = _register_chain(genesis_state, txf, ("alice", "acme", "member"))
    snapshot = s.to_dict()
    with pytest.raises(NotAuthorized):
        update_user_role(s, txf.update("alice", "alice", "acme", "member", "auditor"))
    assert s.to_dict() == snapshot


def test_event_fold_reconstructs_ura_exactly(genesis_state, txf, wallets):
    state = genesis_state
    events = []
    steps = [
        txf.register("alice", "acme", "member"),
        txf.register("bob", "acme", "contractor"),
        txf.update("admin_acme", "alice", "acme", "member", "auditor"),
        txf.update("admin_acme", "alice", "acme", "none", "owner"),
        txf.update("bob", "bob", "acme", "contractor", "member"),
        txf.update("admin_globex", "bob", "globex", "none", "analyst"),
    ]
    for i, tx in enumerate(steps):
        state, evs = apply_transaction(state, tx, height=1, tx_index=i)
        events.extend(e.to_dict() for e in evs)
    folded_ura, folded_pra = fold_events(events)
    assert folded_ura == state.ura
    assert folded_pra == set()
