"""Seeded input generation for the benchmark.

Everything the benchmark feeds the program is a pure function of the
workload seed: keys, the genesis file, the base chain a node cold-starts
from, permission-check triples, the node_mixed request streams and the
simulator transaction mixes. Transactions are signed here, with raw keys,
before any timed phase starts; no wallet KDF runs.

Each generator keeps a plain model of the relations it expects
(``ura``/``pra`` as tuples of strings) and emits only calls that model says
must succeed when applied in order.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from rolechain import keys
from rolechain.payloads import (
    GrantPermissionPayload,
    RegisterUserPayload,
    RevokePermissionPayload,
    SignedTransaction,
    UpdateUserRolePayload,
)
from rolechain.state import OrgRecord, Permission, RolePolicy
from rolechain.store import GenesisFile

ORGS = ("orga", "orgb")
ROLES = ("analyst", "auditor", "member", "staff")  # all self-assignable, uncapped
RESOURCES = ("api", "ledger", "report", "vault")
ACTIONS = ("audit", "exec", "read", "write")
# Checks query only these resources; node_mixed toggles only WRITE_RESOURCE,
# so no write ever changes a check's answer.
READ_RESOURCES = ("ledger", "report", "vault")
WRITE_RESOURCE = "api"
N_VALIDATORS = 4
NODE_KEY_PASSPHRASE = "perfbench-node-key"


@dataclass(frozen=True)
class Identity:
    signing_key: bytes
    public_key: str
    address: str
    password_digest: str

    def sign(self, nonce: int, payload) -> SignedTransaction:
        unsigned = SignedTransaction(
            sender=self.address, nonce=nonce, payload=payload,
            public_key=self.public_key, signature="0" * 128,
        )
        signature = keys.sign(self.signing_key, unsigned.signing_bytes())
        return SignedTransaction(
            sender=self.address, nonce=nonce, payload=payload,
            public_key=self.public_key, signature=signature.hex(),
        )

    def register(self, org: str, role: str) -> SignedTransaction:
        return self.sign(0, RegisterUserPayload(
            user=self.address, public_key=self.public_key,
            password_digest=self.password_digest, org=org, requested_role=role,
        ))


def identity(seed: int, label: str) -> Identity:
    raw = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    signing_key, public_key = keys.keypair_from_seed(raw)
    return Identity(
        signing_key=signing_key,
        public_key=public_key.hex(),
        address=keys.derive_address(public_key),
        password_digest=hashlib.sha256(b"pw:" + raw).hexdigest(),
    )


@dataclass
class Model:
    """The generator's own view of the relations, as plain tuples."""

    ura: set = field(default_factory=set)   # (user, org, role)
    pra: set = field(default_factory=set)   # (org, role, (resource, action))

    def copy(self) -> "Model":
        return Model(set(self.ura), set(self.pra))


class Actors:
    """Validators and one admin per org, all derived from the run seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.validators = [identity(seed, f"validator-{i}") for i in range(N_VALIDATORS)]
        self.admins = {org: identity(seed, f"admin-{org}") for org in ORGS}

    def genesis(self) -> GenesisFile:
        return GenesisFile(
            chain_id=f"perfbench-{self.seed}",
            validators=tuple(v.address for v in self.validators),
            orgs=tuple(
                OrgRecord(
                    org_id=org,
                    admins=frozenset({self.admins[org].address}),
                    role_catalog={r: RolePolicy(r, self_assignable=True) for r in ROLES},
                )
                for org in ORGS
            ),
        )


def all_permissions(resources=RESOURCES):
    return [(res, act) for res in resources for act in ACTIONS]


# --- node workloads: base chain, checks, write streams -------------------------

@dataclass
class BaseChain:
    """The seeded history a node cold-starts from."""

    txs: list                 # SignedTransaction, in commit order
    model: Model
    queried: list             # addresses checks may ask about
    write_targets: list       # addresses only admin add-role writes touch
    admin_nonces: dict        # org -> next nonce of its admin


def base_chain(actors: Actors, n_users: int, grant_share: float) -> BaseChain:
    rng = random.Random(f"base:{actors.seed}")
    model = Model()
    users = [identity(actors.seed, f"user-{i}") for i in range(n_users)]
    txs = []
    for user in users:
        org, role = rng.choice(ORGS), rng.choice(ROLES)
        txs.append(user.register(org, role))
        model.ura.add((user.address, org, role))
    nonces = {org: 0 for org in ORGS}
    grants = []
    for org in ORGS:
        for role in ROLES:
            for perm in all_permissions():
                if rng.random() < grant_share:
                    payload = GrantPermissionPayload(org=org, role=role, permission=Permission(*perm))
                    grants.append(actors.admins[org].sign(nonces[org], payload))
                    nonces[org] += 1
                    model.pra.add((org, role, perm))
    # Spread the admin grants through the registrations, keeping each admin's
    # nonce order.
    slots = set(rng.sample(range(len(txs) + len(grants)), len(grants)))
    grant_iter, reg_iter = iter(grants), iter(txs)
    merged = [
        next(grant_iter) if i in slots else next(reg_iter)
        for i in range(len(txs) + len(grants))
    ]
    addresses = [u.address for u in users]
    write_targets = set(rng.sample(addresses, max(1, n_users // 10)))
    return BaseChain(
        txs=merged,
        model=model,
        queried=[a for a in addresses if a not in write_targets],
        write_targets=sorted(write_targets),
        admin_nonces=nonces,
    )


def check_triples(base: BaseChain, rng: random.Random, n: int) -> list:
    """(user, org, (resource, action)) queries, about half of them granted.

    Half the draws pick a permission the user's role holds in its own org;
    the rest are uniform over org and readable permission. The expected
    answer is left to the oracle.
    """
    by_user = {}
    for u, o, r in base.model.ura:
        by_user.setdefault(u, []).append((o, r))
    held = {}
    for o, r, p in base.model.pra:
        if p[0] in READ_RESOURCES:
            held.setdefault((o, r), []).append(p)
    readable = all_permissions(READ_RESOURCES)
    out = []
    while len(out) < n:
        user = rng.choice(base.queried)
        if rng.random() < 0.5:
            org, role = rng.choice(sorted(by_user[user]))
            perms = sorted(held.get((org, role), ()))
            if perms:
                out.append((user, org, rng.choice(perms)))
                continue
        out.append((user, rng.choice(ORGS), rng.choice(readable)))
    return out


@dataclass(frozen=True)
class Op:
    """One request of a node_mixed stream: a check, or a pre-signed write."""

    check: tuple | None = None
    tx: SignedTransaction | None = None
    kind: str = "check"


def mixed_stream(
    actors: Actors, base: BaseChain, conn: int, n_ops: int, group: int, checks: list
) -> list:
    """The request sequence of connection *conn*: one write per *group* requests.

    The write takes a seeded position inside each group of *group* requests,
    so the write share is exact while the pattern stays irregular.

    Connection *conn* owns the admin of ``ORGS[conn]`` and its nonce chain.
    Its writes touch only fresh users it registers, admin add-role calls on
    the base write targets within its org, and grant/revoke toggles of
    ``WRITE_RESOURCE`` permissions within its org, so the streams of all
    connections fold to the same relations in any interleaving.
    """
    rng = random.Random(f"mixed:{actors.seed}:{conn}")
    org = ORGS[conn]
    admin = actors.admins[org]
    nonce = base.admin_nonces[org]
    ura_org = {t for t in base.model.ura if t[1] == org}
    pra_org = {t for t in base.model.pra if t[0] == org}
    toggles = [(org, role, perm) for role in ROLES for perm in all_permissions((WRITE_RESOURCE,))]
    fresh = 0
    ops = []
    write_at = 0
    for i in range(n_ops):
        if i % group == 0:
            write_at = i + rng.randrange(group)
        if i != write_at:
            ops.append(Op(check=rng.choice(checks)))
            continue
        pick = rng.random()
        if pick < 0.5:
            user = identity(actors.seed, f"fresh-{conn}-{fresh}")
            fresh += 1
            reg_org, role = rng.choice(ORGS), rng.choice(ROLES)
            ops.append(Op(tx=user.register(reg_org, role), kind="register"))
        elif pick < 0.75:
            target = rng.choice(base.write_targets)
            free = [r for r in ROLES if (target, org, r) not in ura_org]
            if not free:
                ops.append(Op(check=rng.choice(checks)))
                continue
            role = rng.choice(free)
            ura_org.add((target, org, role))
            payload = UpdateUserRolePayload(user=target, org=org, old_role="none", new_role=role)
            ops.append(Op(tx=admin.sign(nonce, payload), kind="add_role"))
            nonce += 1
        else:
            triple = rng.choice(toggles)
            _, role, perm = triple
            if triple in pra_org:
                pra_org.discard(triple)
                payload = RevokePermissionPayload(org=org, role=role, permission=Permission(*perm))
                kind = "revoke"
            else:
                pra_org.add(triple)
                payload = GrantPermissionPayload(org=org, role=role, permission=Permission(*perm))
                kind = "grant"
            ops.append(Op(tx=admin.sign(nonce, payload), kind=kind))
            nonce += 1
    return ops


# --- simulator workloads ------------------------------------------------------------

SIM_OP_WEIGHTS = (("register", 30), ("update", 20), ("add_role", 15), ("grant", 25), ("revoke", 10))


def sim_mix(actors: Actors, episode_seed: str, n_txs: int) -> tuple[list, Model]:
    """A valid mixed sequence of *n_txs* calls, weighted like the test workloads.

    Users update their own role or have their org admin do it; admins add
    roles, grant and revoke, so each admin sends a long nonce chain.
    """
    rng = random.Random(f"sim:{actors.seed}:{episode_seed}")
    users = [identity(actors.seed, f"sim-{episode_seed}-{i}") for i in range(max(1, n_txs // 3))]
    by_addr = {u.address: u for u in users}
    model = Model()
    registered: list = []
    nonces: dict = {}

    def sign(who: Identity, payload):
        n = nonces.get(who.address, 0)
        nonces[who.address] = n + 1
        return who.sign(n, payload)

    def op_register():
        pool = [u for u in users if u.address not in nonces]
        if not pool:
            return None
        user = rng.choice(pool)
        org, role = rng.choice(ORGS), rng.choice(ROLES)
        nonces[user.address] = 1
        registered.append(user.address)
        model.ura.add((user.address, org, role))
        return user.register(org, role)

    def op_update():
        held = sorted(model.ura)
        if not held:
            return None
        user, org, old = rng.choice(held)
        new = rng.choice([r for r in ROLES if r != old])
        signer = by_addr[user] if rng.random() < 0.5 else actors.admins[org]
        model.ura.discard((user, org, old))
        model.ura.add((user, org, new))
        return sign(signer, UpdateUserRolePayload(user=user, org=org, old_role=old, new_role=new))

    def op_add_role():
        if not registered:
            return None
        user, org = rng.choice(registered), rng.choice(ORGS)
        new = rng.choice(ROLES)
        model.ura.add((user, org, new))
        return sign(actors.admins[org], UpdateUserRolePayload(
            user=user, org=org, old_role="none", new_role=new))

    def op_grant():
        org = rng.choice(ORGS)
        free = [(r, p) for r in ROLES for p in all_permissions() if (org, r, p) not in model.pra]
        if not free:
            return None
        role, perm = rng.choice(free)
        model.pra.add((org, role, perm))
        return sign(actors.admins[org], GrantPermissionPayload(
            org=org, role=role, permission=Permission(*perm)))

    def op_revoke():
        if not model.pra:
            return None
        org, role, perm = rng.choice(sorted(model.pra))
        model.pra.discard((org, role, perm))
        return sign(actors.admins[org], RevokePermissionPayload(
            org=org, role=role, permission=Permission(*perm)))

    ops = {"register": op_register, "update": op_update, "add_role": op_add_role,
           "grant": op_grant, "revoke": op_revoke}
    names = [name for name, _ in SIM_OP_WEIGHTS]
    weights = [w for _, w in SIM_OP_WEIGHTS]
    txs = []
    while len(txs) < n_txs:
        tx = ops[rng.choices(names, weights=weights)[0]]()
        if tx is not None:
            txs.append(tx)
    return txs, model
