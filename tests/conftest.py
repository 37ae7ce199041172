"""Shared fixtures: deterministic wallets, a two-org genesis, and a tx factory."""

from __future__ import annotations

import hashlib

import pytest

from rolechain.consensus import COMMIT, Network
from rolechain.ledger import Chain, append_block, build_block, new_chain
from rolechain.payloads import (
    GrantPermissionPayload,
    RegisterUserPayload,
    RevokePermissionPayload,
    UpdateUserRolePayload,
)
from rolechain.state import OrgRecord, Permission, RolePolicy, WorldState
from rolechain.store import GenesisFile, build_genesis_state
from rolechain.wallet import Wallet, create_wallet, sign_transaction

PASSPHRASE = "orchard tide 47"
FAST_KDF_ITERATIONS = 10

WALLET_NAMES = [
    "admin_acme", "admin_globex",
    "alice", "bob", "carol", "dave",
    "v0", "v1", "v2", "v3",
]


def make_wallet(name: str) -> Wallet:
    seed = hashlib.sha256(b"rolechain-test-wallet:" + name.encode()).digest()
    salt = hashlib.sha256(b"salt:" + name.encode()).digest()[:16]
    return create_wallet(seed, PASSPHRASE, kdf_salt=salt, iterations=FAST_KDF_ITERATIONS)


def make_genesis_file(wallets: dict[str, Wallet]) -> GenesisFile:
    return GenesisFile(
        chain_id="testnet",
        validators=tuple(wallets[f"v{i}"].address for i in range(4)),
        orgs=(
            OrgRecord(
                org_id="acme",
                admins=frozenset({wallets["admin_acme"].address}),
                role_catalog={
                    "member": RolePolicy("member", self_assignable=True),
                    "contractor": RolePolicy("contractor", self_assignable=True, max_holders=2),
                    "auditor": RolePolicy("auditor"),
                    "owner": RolePolicy("owner", max_holders=1),
                },
            ),
            OrgRecord(
                org_id="globex",
                admins=frozenset({wallets["admin_globex"].address}),
                role_catalog={
                    "member": RolePolicy("member", self_assignable=True),
                    "analyst": RolePolicy("analyst"),
                },
            ),
        ),
    )


@pytest.fixture(scope="session")
def wallets() -> dict[str, Wallet]:
    return {name: make_wallet(name) for name in WALLET_NAMES}


@pytest.fixture(scope="session")
def genesis_file(wallets) -> GenesisFile:
    return make_genesis_file(wallets)


@pytest.fixture(scope="session")
def genesis_state(genesis_file) -> WorldState:
    return build_genesis_state(genesis_file)


class TxFactory:
    """Signs well-formed transactions, tracking per-sender nonces."""

    def __init__(self, wallets: dict[str, Wallet]):
        self.wallets = wallets
        self.nonces: dict[str, int] = {}

    def sign(self, name: str, payload, nonce: int | None = None):
        wallet = self.wallets[name]
        auto = nonce is None
        if auto:
            nonce = self.nonces.get(wallet.address, 0)
        tx = sign_transaction(wallet, PASSPHRASE, wallet.address, nonce, payload)
        if auto:
            self.nonces[wallet.address] = nonce + 1
        return tx

    def register(self, name: str, org: str, role: str, nonce: int | None = None):
        w = self.wallets[name]
        payload = RegisterUserPayload(
            user=w.address,
            public_key=w.public_key,
            password_digest=w.password_digest,
            org=org,
            requested_role=role,
        )
        return self.sign(name, payload, nonce)

    def update(self, signer: str, user: str, org: str, old: str, new: str,
               nonce: int | None = None):
        payload = UpdateUserRolePayload(
            user=self.wallets[user].address, org=org, old_role=old, new_role=new
        )
        return self.sign(signer, payload, nonce)

    def grant(self, signer: str, org: str, role: str, resource: str, action: str,
              nonce: int | None = None):
        payload = GrantPermissionPayload(
            org=org, role=role, permission=Permission(resource, action)
        )
        return self.sign(signer, payload, nonce)

    def revoke(self, signer: str, org: str, role: str, resource: str, action: str,
               nonce: int | None = None):
        payload = RevokePermissionPayload(
            org=org, role=role, permission=Permission(resource, action)
        )
        return self.sign(signer, payload, nonce)


@pytest.fixture
def txf(wallets) -> TxFactory:
    return TxFactory(wallets)


def make_chain(genesis_state: WorldState, txs, proposer: str, per_block: int = 3) -> Chain:
    """Build a chain committing *txs* in order, *per_block* at a time."""
    from rolechain.state import apply_transaction

    chain = new_chain(genesis_state)
    state = genesis_state
    for start in range(0, len(txs), per_block):
        batch = list(txs[start : start + per_block])
        block = build_block(chain.tip.header, batch, state, proposer, tick=chain.height + 1)
        for i, tx in enumerate(batch):
            state, _ = apply_transaction(state, tx, height=block.header.height, tx_index=i)
        chain = append_block(chain, block)
    return chain


def watch_commit_votes(monkeypatch) -> dict:
    """Wrap ``Network.broadcast`` to record every COMMIT, by (sender, height, view).

    A replica that commit-votes a second block in one (height, view) fails
    the run at that broadcast. Returns the record.
    """
    commit_votes: dict[tuple[str, int, int], str] = {}
    broadcast = Network.broadcast

    def recording(network, kind, sender, body):
        if kind == COMMIT:
            key = (sender, body["height"], body["view"])
            first = commit_votes.setdefault(key, body["block_hash"])
            assert first == body["block_hash"], (
                f"{sender} commit-voted two blocks at height {key[1]} view {key[2]}"
            )
        broadcast(network, kind, sender, body)

    monkeypatch.setattr(Network, "broadcast", recording)
    return commit_votes
