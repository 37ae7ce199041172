"""Organization contract: the permission-role relation and the live check.

Grants and revocations are admin-signed transactions and always emit one
event. ``check_permission`` is a pure read over committed state — it is how
services ask "may this user do this here, right now" without touching the
chain. It tests each role of the (user, org) → roles index (``state._UraSet``)
against ``pra``, so it never scans a relation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import codec
from .errors import DuplicateGrant, NotAuthorized, NotGranted, UnknownOrg, UnknownRole
from .payloads import SignedTransaction
from .state import (
    EVENT_PERMISSION_GRANTED,
    EVENT_PERMISSION_REVOKED,
    Event,
    Permission,
    WorldState,
    _check_id,
    roles_held,
)


def _edit_permission(
    state: WorldState, tx: SignedTransaction, height: int, tx_index: int, grant: bool
) -> list[Event]:
    """Add (*grant*) or remove one (org, role, permission) triple in *state* as an org admin."""
    payload = tx.payload
    org = state.orgs.get(payload.org)
    if org is None:
        raise UnknownOrg(payload.org)
    if tx.sender not in org.admins:
        raise NotAuthorized(f"{tx.sender} is not an admin of {payload.org}")
    if payload.role not in org.role_catalog:
        raise UnknownRole(f"{payload.org} has no role {payload.role!r}")
    triple = (payload.org, payload.role, payload.permission)
    if grant and triple in state.pra:
        raise DuplicateGrant(f"{payload.role!r} already holds {payload.permission}")
    if not grant and triple not in state.pra:
        raise NotGranted(f"{payload.role!r} does not hold {payload.permission}")

    (state.pra.add if grant else state.pra.discard)(triple)
    event = Event.make(
        EVENT_PERMISSION_GRANTED if grant else EVENT_PERMISSION_REVOKED,
        {"org": payload.org, "role": payload.role, "permission": payload.permission},
        height,
        tx_index,
    )
    return [event]


def grant_permission(
    state: WorldState, tx: SignedTransaction, *, height: int = 0, tx_index: int = 0
) -> list[Event]:
    """Add (org, role, permission) to the permission-role relation."""
    return _edit_permission(state, tx, height, tx_index, grant=True)


def revoke_permission(
    state: WorldState, tx: SignedTransaction, *, height: int = 0, tx_index: int = 0
) -> list[Event]:
    """Remove (org, role, permission) from the permission-role relation."""
    return _edit_permission(state, tx, height, tx_index, grant=False)


@dataclass(frozen=True)
class PermissionCheck(codec.Record):
    granted: bool
    via_roles: frozenset[str]

    def __post_init__(self):
        for role in self.via_roles:
            _check_id(role, "a via role")


def check_permission(
    state: WorldState, user: str, org: str, permission: Permission
) -> PermissionCheck:
    """Does *user* hold, in *org*, any role that carries *permission*?

    Unknown users or orgs simply yield a negative answer; a query is never an
    error and is never recorded.
    """
    held = roles_held(state, user, org)
    via = frozenset(role for role in held if (org, role, permission) in state.pra)
    return PermissionCheck(granted=bool(via), via_roles=via)
