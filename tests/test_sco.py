import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolechain.errors import DuplicateGrant, NotAuthorized, NotGranted, UnknownOrg, UnknownRole
from rolechain import sco
from rolechain.sco import check_permission
from rolechain.state import Permission, WorldState, apply_transaction

from oracles import brute_force_check, fold_events, on_a_copy, plain_relations

grant_permission = on_a_copy(sco.grant_permission)
revoke_permission = on_a_copy(sco.revoke_permission)

LEDGER_READ = Permission("ledger", "read")


def _setup(genesis_state, txf):
    s, _ = apply_transaction(genesis_state, txf.register("alice", "acme", "member"))
    s, _ = apply_transaction(s, txf.update("admin_acme", "alice", "acme", "member", "auditor"))
    return s


def test_grant_emits_event(genesis_state, txf):
    s = _setup(genesis_state, txf)
    tx = txf.grant("admin_acme", "acme", "auditor", "ledger", "read")
    new, events = grant_permission(s, tx, height=4, tx_index=2)
    assert ("acme", "auditor", LEDGER_READ) in new.pra
    assert len(events) == 1
    e = events[0]
    assert e.kind == "PermissionGranted"
    assert e.attrs["org"] == "acme"
    assert e.attrs["role"] == "auditor"
    assert e.attrs["permission"] == LEDGER_READ
    assert (e.height, e.tx_index) == (4, 2)


def test_duplicate_grant_rejected(genesis_state, txf):
    s = _setup(genesis_state, txf)
    s, _ = grant_permission(s, txf.grant("admin_acme", "acme", "auditor", "ledger", "read"))
    with pytest.raises(DuplicateGrant):
        grant_permission(s, txf.grant("admin_acme", "acme", "auditor", "ledger", "read"))


def test_grant_by_regular_user_rejected(genesis_state, txf):
    s = _setup(genesis_state, txf)
    with pytest.raises(NotAuthorized):
        grant_permission(s, txf.grant("alice", "acme", "auditor", "ledger", "read"))


def test_grant_by_other_orgs_admin_rejected(genesis_state, txf):
    s = _setup(genesis_state, txf)
    with pytest.raises(NotAuthorized):
        grant_permission(s, txf.grant("admin_globex", "acme", "auditor", "ledger", "read"))


def test_grant_unknown_org_and_role(genesis_state, txf):
    with pytest.raises(UnknownOrg):
        grant_permission(genesis_state, txf.grant("admin_acme", "initech", "auditor", "l", "r"))
    with pytest.raises(UnknownRole):
        grant_permission(genesis_state, txf.grant("admin_acme", "acme", "wizard", "l", "r"))


def test_revoke_round_trip(genesis_state, txf):
    s = _setup(genesis_state, txf)
    granted, _ = grant_permission(s, txf.grant("admin_acme", "acme", "auditor", "ledger", "read"))
    assert check_permission(granted, _alice(txf), "acme", LEDGER_READ).granted

    revoked, events = revoke_permission(
        granted, txf.revoke("admin_acme", "acme", "auditor", "ledger", "read")
    )
    assert events[0].kind == "PermissionRevoked"
    assert not check_permission(revoked, _alice(txf), "acme", LEDGER_READ).granted


def test_revoke_twice_rejected(genesis_state, txf):
    s = _setup(genesis_state, txf)
    s, _ = grant_permission(s, txf.grant("admin_acme", "acme", "auditor", "ledger", "read"))
    s, _ = revoke_permission(s, txf.revoke("admin_acme", "acme", "auditor", "ledger", "read"))
    with pytest.raises(NotGranted):
        revoke_permission(s, txf.revoke("admin_acme", "acme", "auditor", "ledger", "read"))


def test_revoke_never_granted(genesis_state, txf):
    with pytest.raises(NotGranted):
        revoke_permission(genesis_state, txf.revoke("admin_acme", "acme", "auditor", "x", "y"))


def test_grant_then_revoke_is_identity_outside_nonces(genesis_state, txf):
    s = _setup(genesis_state, txf)
    granted, _ = grant_permission(s, txf.grant("admin_acme", "acme", "auditor", "ledger", "read"))
    back, _ = revoke_permission(
        granted, txf.revoke("admin_acme", "acme", "auditor", "ledger", "read")
    )
    assert back.pra == s.pra
    assert back.ura == s.ura
    assert back.users == s.users
    assert back.orgs == s.orgs


def test_check_granted_via_role(genesis_state, txf, wallets):
    s = _setup(genesis_state, txf)
    s, _ = grant_permission(s, txf.grant("admin_acme", "acme", "auditor", "ledger", "read"))
    result = check_permission(s, wallets["alice"].address, "acme", LEDGER_READ)
    assert result.granted
    assert result.via_roles == {"auditor"}
    # agrees with the exhaustive oracle
    ura, pra = plain_relations(s)
    granted, roles = brute_force_check(ura, pra, wallets["alice"].address, "acme", ("ledger", "read"))
    assert (result.granted, set(result.via_roles)) == (granted, roles)


def test_check_unknown_user_or_org_is_false(genesis_state, txf):
    result = check_permission(genesis_state, "ab" * 20, "acme", LEDGER_READ)
    assert not result.granted and result.via_roles == frozenset()
    result = check_permission(genesis_state, "ab" * 20, "initech", LEDGER_READ)
    assert not result.granted


def test_check_is_org_scoped(genesis_state, txf, wallets):
    # permission granted in acme; alice's globex role must not leak it
    s, _ = apply_transaction(genesis_state, txf.register("alice", "globex", "member"))
    s, _ = grant_permission(s, txf.grant("admin_acme", "acme", "member", "ledger", "read"))
    assert not check_permission(s, wallets["alice"].address, "acme", LEDGER_READ).granted
    assert not check_permission(s, wallets["alice"].address, "globex", LEDGER_READ).granted


def test_pra_fold_reconstructs_exactly(genesis_state, txf):
    s = _setup(genesis_state, txf)
    events = []
    ops = [
        txf.grant("admin_acme", "acme", "auditor", "ledger", "read"),
        txf.grant("admin_acme", "acme", "auditor", "ledger", "write"),
        txf.grant("admin_acme", "acme", "member", "report", "read"),
        txf.revoke("admin_acme", "acme", "auditor", "ledger", "write"),
        txf.grant("admin_globex", "globex", "member", "api", "exec"),
    ]
    for i, tx in enumerate(ops):
        s, evs = apply_transaction(s, tx, height=2, tx_index=i)
        events.extend(e.to_dict() for e in evs)
    _, folded_pra = fold_events(events)
    _, pra = plain_relations(s)
    assert folded_pra == pra


# --- oracle equivalence over randomized relations -----------------------------

users = st.sampled_from([f"u{i:02d}" * 10 for i in range(8)])
orgs = st.sampled_from(["orgA", "orgB", "orgC"])
roles = st.sampled_from(["r0", "r1", "r2", "r3"])
perms = st.tuples(st.sampled_from(["res0", "res1"]), st.sampled_from(["act0", "act1"]))


@settings(max_examples=60, deadline=None)
@given(
    ura=st.sets(st.tuples(users, orgs, roles), max_size=40),
    pra=st.sets(st.tuples(orgs, roles, perms), max_size=30),
    user=users,
    org=orgs,
    perm=perms,
)
def test_check_agrees_with_brute_force(ura, pra, user, org, perm):
    state = WorldState(
        ura=set(ura),
        pra={(o, r, Permission(p[0], p[1])) for o, r, p in pra},
    )
    result = check_permission(state, user, org, Permission(perm[0], perm[1]))
    granted, via = brute_force_check(ura, pra, user, org, perm)
    assert result.granted == granted
    assert set(result.via_roles) == via


def _alice(txf):
    return txf.wallets["alice"].address
