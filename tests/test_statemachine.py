"""Differential stateful test: random operation sequences against a plain model.

Hypothesis drives arbitrary (often invalid) contract calls. A dict/set model
predicts only whether each call must succeed; the real state machine has to
agree, apply the same relation change, and stay byte-identical on failures.
"""

import hashlib

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from rolechain.errors import TransactionError
from rolechain.payloads import (
    GrantPermissionPayload,
    RegisterUserPayload,
    RevokePermissionPayload,
    UpdateUserRolePayload,
)
from rolechain.state import Permission, apply_transaction, state_root
from rolechain.store import build_genesis_state
from rolechain.wallet import create_wallet, sign_transaction

from conftest import WALLET_NAMES, make_genesis_file, make_wallet
from oracles import check_integrity

PASS = "machine passphrase 1"

USERS = ["u0", "u1", "u2", "u3"]
ORGS = ["acme", "globex"]
ROLES = ["member", "contractor", "auditor", "owner", "analyst", "none", "ghost"]
PERMS = [("ledger", "read"), ("ledger", "write"), ("api", "exec")]

_BASE_WALLETS = {name: make_wallet(name) for name in WALLET_NAMES}
_USER_WALLETS = {
    name: create_wallet(
        hashlib.sha256(b"machine-user:" + name.encode()).digest(), PASS,
        kdf_salt=hashlib.sha256(b"machine-salt:" + name.encode()).digest()[:16],
        iterations=10,
    )
    for name in USERS
}
_GENESIS_FILE = make_genesis_file(_BASE_WALLETS)
_CATALOG = {
    org.org_id: {r: (p.self_assignable, p.max_holders) for r, p in org.role_catalog.items()}
    for org in _GENESIS_FILE.orgs
}
_ADMINS = {org.org_id: sorted(org.admins)[0] for org in _GENESIS_FILE.orgs}


class ContractMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.state = build_genesis_state(_GENESIS_FILE)
        self.signers = dict(_USER_WALLETS)
        for name, w in _BASE_WALLETS.items():
            self.signers[name] = w
        self.passphrases = {n: PASS for n in USERS}
        from conftest import PASSPHRASE as BASE_PASS

        for name in _BASE_WALLETS:
            self.passphrases[name] = BASE_PASS
        # plain model
        self.registered: set[str] = set()
        self.ura: set[tuple[str, str, str]] = set()
        self.nonces: dict[str, int] = {}
        self.pra: set[tuple[str, str, tuple[str, str]]] = set()

    # --- model-side rule mirror ------------------------------------------------

    def _addr(self, name: str) -> str:
        return self.signers[name].address

    def _holders(self, org, role):
        return sum(1 for _, o, r in self.ura if o == org and r == role)

    def _cap_ok(self, user, org, role):
        self_a, cap = _CATALOG[org][role]
        if (user, org, role) in self.ura:
            return True
        return cap is None or self._holders(org, role) < cap

    def _apply(self, signer_name, payload, valid: bool):
        wallet = self.signers[signer_name]
        nonce = self.nonces.get(wallet.address, 0)
        tx = sign_transaction(wallet, self.passphrases[signer_name], wallet.address, nonce, payload)
        if valid:
            self.state, events = apply_transaction(self.state, tx)
            self.nonces[wallet.address] = nonce + 1
            assert len(events) == 1
        else:
            before = state_root(self.state)
            try:
                apply_transaction(self.state, tx)
            except TransactionError:
                assert state_root(self.state) == before
            else:
                raise AssertionError("model predicted failure, contract accepted")

    # --- rules -------------------------------------------------------------------

    @rule(user=st.sampled_from(USERS), org=st.sampled_from(ORGS),
          role=st.sampled_from(ROLES))
    def register(self, user, org, role):
        w = self.signers[user]
        payload_role_known = role in _CATALOG[org]
        valid = (
            w.address not in self.registered
            and payload_role_known
            and _CATALOG[org][role][0]
            and self._cap_ok(w.address, org, role)
        )
        payload = RegisterUserPayload(
            user=w.address, public_key=w.public_key, password_digest=w.password_digest,
            org=org, requested_role=role,
        )
        self._apply(user, payload, valid)
        if valid:
            self.registered.add(w.address)
            self.ura.add((w.address, org, role))

    @rule(signer=st.sampled_from(USERS + ["admin_acme", "admin_globex"]),
          user=st.sampled_from(USERS), org=st.sampled_from(ORGS),
          old=st.sampled_from(ROLES), new=st.sampled_from(ROLES))
    def update(self, signer, user, org, old, new):
        if old == new:
            return  # the payload type itself forbids this
        target = self._addr(user)
        adding = old == "none"
        is_admin = self._addr(signer) == _ADMINS[org]
        new_known = new in _CATALOG[org]
        valid = (
            target in self.registered
            and (adding or (target, org, old) in self.ura)
            and new_known
            and (
                is_admin
                or (self._addr(signer) == target and not adding and _CATALOG[org][new][0])
            )
            and self._cap_ok(target, org, new)
        )
        payload = UpdateUserRolePayload(user=target, org=org, old_role=old, new_role=new)
        self._apply(signer, payload, valid)
        if valid:
            if not adding:
                self.ura.discard((target, org, old))
            self.ura.add((target, org, new))

    @rule(signer=st.sampled_from(["admin_acme", "admin_globex", "u0"]),
          org=st.sampled_from(ORGS), role=st.sampled_from(ROLES),
          perm=st.sampled_from(PERMS))
    def grant(self, signer, org, role, perm):
        if role == "none":
            return  # reserved id is rejected at genesis, not grantable
        valid = (
            self._addr(signer) == _ADMINS[org]
            and role in _CATALOG[org]
            and (org, role, perm) not in self.pra
        )
        payload = GrantPermissionPayload(org=org, role=role, permission=Permission(*perm))
        self._apply(signer, payload, valid)
        if valid:
            self.pra.add((org, role, perm))

    @rule(signer=st.sampled_from(["admin_acme", "admin_globex", "u1"]),
          org=st.sampled_from(ORGS), role=st.sampled_from(ROLES),
          perm=st.sampled_from(PERMS))
    def revoke(self, signer, org, role, perm):
        if role == "none":
            return
        valid = (
            self._addr(signer) == _ADMINS[org]
            and role in _CATALOG[org]
            and (org, role, perm) in self.pra
        )
        payload = RevokePermissionPayload(org=org, role=role, permission=Permission(*perm))
        self._apply(signer, payload, valid)
        if valid:
            self.pra.discard((org, role, perm))

    # --- invariants -----------------------------------------------------------------

    @invariant()
    def relations_match_model(self):
        assert self.state.ura == self.ura
        assert {(o, r, (p.resource, p.action)) for o, r, p in self.state.pra} == self.pra
        assert set(self.state.users) == self.registered

    @invariant()
    def referential_integrity(self):
        check_integrity(self.state)


TestContractMachine = ContractMachine.TestCase
TestContractMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
