"""Independent reference answers for the correctness gate.

Plain tuples, sets and loops only, sharing no code with the program: a
brute-force permission check over the relations and a fold of the audit
event stream back into relations.
"""

from __future__ import annotations


def brute_force_check(ura, pra, user: str, org: str, perm: tuple) -> tuple[bool, list]:
    """Enumerate ura x pra; returns (granted, sorted via_roles)."""
    roles = set()
    for u, o, r in ura:
        if u != user or o != org:
            continue
        for po, pr, pp in pra:
            if po == org and pr == r and pp == perm:
                roles.add(r)
    return bool(roles), sorted(roles)


def fold_events(event_dicts) -> tuple[set, set]:
    """Rebuild (ura, pra) from audit events; pra holds (resource, action) tuples."""
    ura: set = set()
    pra: set = set()
    for e in sorted(event_dicts, key=lambda d: (d["height"], d["tx_index"])):
        kind, a = e["kind"], e["attributes"]
        if kind == "UserRegistered":
            ura.add((a["user"], a["org"], a["role"]))
        elif kind == "UserRoleUpdated":
            ura.discard((a["user"], a["org"], a["old_role"]))
            ura.add((a["user"], a["org"], a["new_role"]))
        elif kind == "PermissionGranted":
            p = a["permission"]
            pra.add((a["org"], a["role"], (p["resource"], p["action"])))
        elif kind == "PermissionRevoked":
            p = a["permission"]
            pra.discard((a["org"], a["role"], (p["resource"], p["action"])))
        else:
            raise ValueError(f"unexpected event kind {kind}")
    return ura, pra


def fold_transactions(tx_dicts) -> tuple[set, set]:
    """Rebuild (ura, pra) from committed transactions, in commit order.

    Only transactions that committed are given, so each one's effect
    applies as written; this checks the events against the calls.
    """
    ura: set = set()
    pra: set = set()
    for tx in tx_dicts:
        p = tx["payload"]
        kind = p["kind"]
        if kind == "register_user":
            ura.add((p["user"], p["org"], p["requested_role"]))
        elif kind == "update_user_role":
            ura.discard((p["user"], p["org"], p["old_role"]))
            ura.add((p["user"], p["org"], p["new_role"]))
        elif kind == "grant_permission":
            perm = p["permission"]
            pra.add((p["org"], p["role"], (perm["resource"], perm["action"])))
        elif kind == "revoke_permission":
            perm = p["permission"]
            pra.discard((p["org"], p["role"], (perm["resource"], perm["action"])))
        else:
            raise ValueError(f"unexpected payload kind {kind}")
    return ura, pra


def expected_answers(ura, pra, triples) -> list:
    """The brute-force answer to each (user, org, perm) triple."""
    return [brute_force_check(ura, pra, u, o, p) for u, o, p in triples]
