"""The two read indexes of ``ura`` against a brute-force recount of the relation.

``ura.roles`` maps (user, org) to the roles held there and ``ura.holders``
maps (org, role) to its holder count. A rule-based machine writes a tree of
clones through every path that changes the relation or makes a new one, and
after each step recomputes both indexes of every state from its members. Each
state is checked against its own model, so a write to a clone that leaked
into its parent's indexes fails there. The work-count test holds the three
reads that use the indexes to no iteration of ``ura`` at all.
"""

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from rolechain.sco import check_permission
from rolechain.state import (
    OrgRecord,
    Permission,
    RolePolicy,
    WorldState,
    query_roles,
    role_holder_count,
    state_root,
)

USERS = ["aa" * 20, "bb" * 20, "cc" * 20]
ORGS = ["acme", "globex"]
ROLES = ["member", "auditor", "owner"]
MAX_STATES = 6

_ORGS = {
    org: OrgRecord(org, frozenset({"dd" * 20}), {r: RolePolicy(r) for r in ROLES})
    for org in ORGS
}
members = st.tuples(st.sampled_from(USERS), st.sampled_from(ORGS), st.sampled_from(ROLES))
picks = st.integers(0, MAX_STATES - 1)


def _expected_indexes(ura) -> tuple[dict, dict]:
    roles: dict = {}
    for user, org, role in ura:
        roles.setdefault((user, org), []).append(role)
    holders = Counter((org, role) for _, org, role in ura)
    return {k: sorted(v) for k, v in roles.items()}, dict(holders)


class UraIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # Each state paired with its own plain model of ura.
        self.states: list[tuple[WorldState, set]] = [(WorldState(orgs=dict(_ORGS)), set())]

    def _pick(self, i: int) -> tuple[WorldState, set]:
        return self.states[i % len(self.states)]

    @rule(i=picks, member=members)
    def add(self, i, member):
        state, model = self._pick(i)
        state.ura.add(member)
        model.add(member)

    @rule(i=picks, member=members)
    def discard(self, i, member):
        state, model = self._pick(i)
        state.ura.discard(member)
        model.discard(member)

    @rule(i=picks, member=members)
    def remove(self, i, member):
        state, model = self._pick(i)
        if member in model:
            state.ura.remove(member)
            model.remove(member)
        else:
            with pytest.raises(KeyError):
                state.ura.remove(member)

    @precondition(lambda self: len(self.states) < MAX_STATES)
    @rule(i=picks)
    def clone(self, i):
        state, model = self._pick(i)
        self.states.append((state.clone(), set(model)))

    @rule(i=picks)
    def round_trip(self, i):
        state, model = self._pick(i)
        self.states[i % len(self.states)] = (WorldState.from_dict(state.to_dict()), model)

    @rule(i=picks, new=st.sets(members, max_size=8))
    def assign_whole(self, i, new):
        state, model = self._pick(i)
        state.ura = set(new)
        model.clear()
        model.update(new)

    @rule(i=picks)
    def root(self, i):
        state_root(self._pick(i)[0])  # clears the change log, never an index

    @invariant()
    def indexes_match_a_recount(self):
        for state, model in self.states:
            assert state.ura == model
            expected_roles, expected_holders = _expected_indexes(model)
            # A key whose last role or holder went may stay, holding () or 0.
            assert all(type(held) is tuple for held in state.ura.roles.values())
            assert {k: sorted(v) for k, v in state.ura.roles.items() if v} == expected_roles
            assert {k: n for k, n in state.ura.holders.items() if n} == expected_holders

    @invariant()
    def reads_match_a_recount(self):
        for state, model in self.states:
            expected_roles, expected_holders = _expected_indexes(model)
            for user in USERS:
                want = {o: set(expected_roles[user, o]) for o in ORGS if (user, o) in expected_roles}
                assert query_roles(state, user) == want
            for org in ORGS:
                for role in ROLES:
                    assert role_holder_count(state, org, role) == expected_holders.get((org, role), 0)


TestUraIndexMachine = UraIndexMachine.TestCase
TestUraIndexMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


def test_the_index_reads_never_iterate_ura(monkeypatch):
    state = WorldState(
        orgs=dict(_ORGS),
        ura={(u, o, r) for u in USERS for o in ORGS for r in ROLES[:2]},
        pra={("acme", "member", Permission("ledger", "read"))},
    )
    relation = type(state.ura)
    iterations = Counter()
    plain_iter = relation.__iter__

    def counted(self):
        iterations["ura"] += 1
        return plain_iter(self)

    monkeypatch.setattr(relation, "__iter__", counted)
    for user in USERS + ["ee" * 20]:
        for org in ORGS + ["initech"]:
            check_permission(state, user, org, Permission("ledger", "read"))
            role_holder_count(state, org, "member")
        query_roles(state, user)
    assert iterations["ura"] == 0
    assert check_permission(state, USERS[0], "acme", Permission("ledger", "read")).granted
    list(state.ura)  # the counter sees an iteration when there is one
    assert iterations["ura"] == 1
