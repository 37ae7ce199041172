"""Declarative simulation scenarios.

A scenario file is self-contained: named actors (with key seeds), the
validator set and organizations drawn from those actors, a fault schedule,
and a workload of contract calls stamped with submission ticks. The runner
derives every wallet, builds the genesis, signs and injects the workload,
and runs the network to quiescence — deterministically, so two runs of the
same file produce the same report. A key that the scenario, its network, an
actor, an org or a workload item's op does not define is refused.

Example::

    {
      "name": "demo",
      "actors": {"v0": {}, "v1": {}, "v2": {}, "v3": {}, "boss": {}, "ann": {}},
      "validators": ["v0", "v1", "v2", "v3"],
      "orgs": [{"org_id": "acme", "admins": ["boss"],
                "role_catalog": {"member": {"self_assignable": true, "max_holders": null}}}],
      "network": {"rng_seed": 7},
      "workload": [
        {"tick": 1, "op": "register_user", "actor": "ann", "org": "acme", "role": "member"}
      ],
      "max_ticks": 300
    }
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from . import codec
from .consensus import (
    CrashRule,
    DropRule,
    Network,
    NetworkConfig,
    PartitionRule,
    run_until_quiescent,
    step,
    submit_tx,
)
from .errors import SimTimeout
from .payloads import (
    GrantPermissionPayload,
    Payload,
    RegisterUserPayload,
    RevokePermissionPayload,
    UpdateUserRolePayload,
)
from .state import OrgRecord, RolePolicy
from .store import GenesisFile, build_genesis_state
from .wallet import Wallet, create_wallet, sign_transaction

DEFAULT_PASSPHRASE = "scenario-passphrase"
_KDF_ITERATIONS = 100  # simulation wallets are throwaway; favor speed
# The keys of each workload op beside tick, op, actor and via.
_OP_KEYS = {
    "register_user": ("org", "role"),
    "update_user_role": ("user", "org", "old_role", "new_role"),
    "grant_permission": ("org", "role", "resource", "action"),
    "revoke_permission": ("org", "role", "resource", "action"),
}


@dataclass(frozen=True)
class WorkItem:
    """One workload entry, checked and built at load; only its nonce and signature wait."""

    tick: int
    op: str
    actor: str
    payload: Payload
    via: str | None  # the entry validator, or None for the first one up


@dataclass
class Scenario:
    name: str
    actors: dict[str, Wallet]
    passphrases: dict[str, str]
    genesis: GenesisFile
    config: NetworkConfig
    workload: list[WorkItem]
    max_ticks: int = 300


def _known(doc: dict, keys, where: str) -> dict:
    """*doc*, unless it holds a key not in *keys*: a misspelled key raises ValueError."""
    unknown = sorted(doc.keys() - set(keys))
    if unknown:
        raise ValueError(f"{where} has an unknown key {unknown[0]!r}")
    return doc


def _actor_wallet(name: str, entry: dict) -> tuple[Wallet, str]:
    _known(entry, ("seed", "passphrase"), f"scenario actor {name!r}")
    seed_hex = entry.get("seed")
    seed = bytes.fromhex(seed_hex) if seed_hex else hashlib.sha256(
        b"rolechain-scenario-actor:" + name.encode("utf-8")
    ).digest()
    passphrase = entry.get("passphrase", DEFAULT_PASSPHRASE)
    salt = hashlib.sha256(b"salt:" + name.encode("utf-8")).digest()[:16]
    return create_wallet(seed, passphrase, kdf_salt=salt, iterations=_KDF_ITERATIONS), passphrase


def load_scenario(source: str | Path | dict) -> Scenario:
    """Parse a scenario; a document that is not a scenario raises ValueError."""
    doc = source if isinstance(source, dict) else codec.loads(Path(source).read_text("utf-8"))
    try:
        return _parse_scenario(doc)
    except (LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"not a scenario: {exc!r}") from exc


def _parse_scenario(doc: dict) -> Scenario:
    keys = ("name", "actors", "validators", "orgs", "network", "workload", "max_ticks")
    name = _known(doc, keys, "scenario").get("name", "scenario")
    actors: dict[str, Wallet] = {}
    passphrases: dict[str, str] = {}
    for actor_name, entry in doc["actors"].items():
        actors[actor_name], passphrases[actor_name] = _actor_wallet(actor_name, entry or {})

    def actor(actor_name: str) -> Wallet:
        if actor_name not in actors:
            raise ValueError(f"workload references unknown actor {actor_name!r}")
        return actors[actor_name]

    validators = [actor(v).address for v in doc["validators"]]
    for o in doc["orgs"]:
        _known(o, ("org_id", "admins", "role_catalog"), "scenario org")
    orgs = tuple(
        OrgRecord(
            org_id=o["org_id"],
            admins=frozenset(actor(a).address for a in o["admins"]),
            role_catalog={
                role: RolePolicy.from_dict(
                    {"self_assignable": False, "max_holders": None, **policy, "role_id": role}
                )
                for role, policy in o["role_catalog"].items()
            },
        )
        for o in doc["orgs"]
    )
    genesis = GenesisFile(chain_id=name, validators=tuple(validators), orgs=orgs)
    build_genesis_state(genesis)  # the genesis checks, at load

    rules = ("rng_seed", "crash_rules", "partition_rules", "drop_rules")
    net = _known(doc.get("network", {}), rules, "scenario network")
    config = NetworkConfig(
        validators=validators,
        rng_seed=net.get("rng_seed", 0),
        crash_rules=[CrashRule(**r) for r in net.get("crash_rules", [])],
        partition_rules=[PartitionRule(**r) for r in net.get("partition_rules", [])],
        drop_rules=[DropRule(**r) for r in net.get("drop_rules", [])],
    )
    workload = sorted(
        (_work_item(item, actor, validators) for item in doc.get("workload", [])),
        key=lambda w: w.tick,
    )
    return Scenario(
        name=name,
        actors=actors,
        passphrases=passphrases,
        genesis=genesis,
        config=config,
        workload=workload,
        max_ticks=codec.require_int(doc.get("max_ticks", 300), "max_ticks"),
    )


def _work_item(item: dict, actor, validators: list[str]) -> WorkItem:
    """*item* checked and prepared; *actor* maps an actor name to its wallet or raises."""
    op = item["op"]
    if op not in _OP_KEYS:
        raise ValueError(f"unknown workload op {op!r}")
    _known(item, ("tick", "op", "actor", "via", *_OP_KEYS[op]), f"workload {op} item")
    wallet = actor(item["actor"])
    # Each payload is decoded as a posted one is, so its fields get the same checks.
    if op == "register_user":
        payload = RegisterUserPayload.from_dict({
            "user": wallet.address,
            "public_key": wallet.public_key,
            "password_digest": wallet.password_digest,
            "org": item["org"],
            "requested_role": item["role"],
        })
    elif op == "update_user_role":
        payload = UpdateUserRolePayload.from_dict({
            "user": actor(item["user"]).address,
            "org": item["org"],
            "old_role": item["old_role"],
            "new_role": item["new_role"],
        })
    else:
        edit = GrantPermissionPayload if op == "grant_permission" else RevokePermissionPayload
        payload = edit.from_dict({
            "org": item["org"], "role": item["role"],
            "permission": {"resource": item["resource"], "action": item["action"]},
        })
    via = item.get("via")
    if via is not None:
        if type(via) is not int or not 0 <= via < len(validators):
            raise ValueError(f"workload via {via!r} is not a validator index")
        via = validators[via]
    tick = codec.require_int(item["tick"], "workload tick")
    return WorkItem(tick=tick, op=op, actor=item["actor"], payload=payload, via=via)


def run_scenario(sc: Scenario) -> tuple[Network, dict]:
    """Execute the scenario and return (network, report)."""
    network = Network(sc.config, build_genesis_state(sc.genesis))
    nonces: dict[str, int] = {}
    submitted = []

    pending = list(sc.workload)
    while pending and network.tick < sc.max_ticks:
        while pending and pending[0].tick <= network.tick:
            item = pending.pop(0)
            wallet = sc.actors[item.actor]
            nonce = nonces.get(item.actor, 0)
            tx = sign_transaction(
                wallet, sc.passphrases[item.actor], wallet.address, nonce, item.payload
            )
            ok, reason, tx_id = submit_tx(network, tx, via=item.via)
            if ok:
                nonces[item.actor] = nonce + 1
            submitted.append(
                {"tick": network.tick, "op": item.op, "actor": item.actor,
                 "accepted": ok, "reason": reason, "tx_id": tx_id}
            )
        step(network)

    budget = sc.max_ticks - network.tick
    try:
        result = run_until_quiescent(network, max(budget, 1))
    except SimTimeout as exc:
        result = exc.report
    result["scenario"] = sc.name
    result["submissions"] = submitted
    return network, result


def run_scenario_file(path: str | Path) -> tuple[Network, dict]:
    return run_scenario(load_scenario(path))
