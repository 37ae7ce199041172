"""User contract: registration and role changes over the user-role relation.

Authorization rules:

* ``register_user`` is self-service only, and only for roles whose policy is
  marked self-assignable. The sender must be the user being registered and
  the payload key must be the envelope key.
* ``update_user_role`` replaces one held role with another. The user may do
  this for self-assignable target roles; an org admin may move the user to
  any cataloged role. The reserved old-role sentinel ``"none"`` lets an
  admin add a role without removing one (the grant path into a second org).

Each handler checks against the state it is given, then writes into it and
returns its one event; a failed call raises before its first write.
"""

from __future__ import annotations

from .errors import (
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
from .payloads import RegisterUserPayload, SignedTransaction, UpdateUserRolePayload
from .state import (
    EVENT_USER_REGISTERED,
    EVENT_USER_ROLE_UPDATED,
    ROLE_NONE,
    Event,
    UserRecord,
    WorldState,
    role_holder_count,
)


def register_user(
    state: WorldState, tx: SignedTransaction, *, height: int = 0, tx_index: int = 0
) -> list[Event]:
    """Create a user record and the initial (user, org, role) assignment in *state*."""
    payload: RegisterUserPayload = tx.payload
    if payload.user != tx.sender:
        raise AddressMismatch("registration must be signed by the user being registered")
    if payload.public_key != tx.public_key:
        raise AddressMismatch("payload key differs from the envelope key")
    if payload.user in state.users:
        raise AlreadyRegistered(f"{payload.user} already has a user record")
    org = state.orgs.get(payload.org)
    if org is None:
        raise UnknownOrg(payload.org)
    policy = org.role_catalog.get(payload.requested_role)
    if policy is None:
        raise UnknownRole(f"{payload.org} has no role {payload.requested_role!r}")
    if not policy.self_assignable:
        raise NotEligible(f"role {payload.requested_role!r} is not self-assignable")
    if policy.max_holders is not None:
        if role_holder_count(state, payload.org, payload.requested_role) >= policy.max_holders:
            raise RoleFull(f"role {payload.requested_role!r} is at capacity")

    state.users[payload.user] = UserRecord(
        address=payload.user,
        public_key=payload.public_key,
        password_digest=payload.password_digest,
        registered_at=(height, tx_index),
    )
    state.ura.add((payload.user, payload.org, payload.requested_role))
    event = Event.make(
        EVENT_USER_REGISTERED,
        {"user": payload.user, "org": payload.org, "role": payload.requested_role},
        height,
        tx_index,
    )
    return [event]


def update_user_role(
    state: WorldState, tx: SignedTransaction, *, height: int = 0, tx_index: int = 0
) -> list[Event]:
    """Replace (user, org, old_role) with (user, org, new_role) in *state*."""
    payload: UpdateUserRolePayload = tx.payload
    if payload.user not in state.users:
        raise NotRegistered(payload.user)
    adding = payload.old_role == ROLE_NONE
    if not adding and (payload.user, payload.org, payload.old_role) not in state.ura:
        raise NoSuchAssignment(f"{payload.user} does not hold {payload.old_role!r} in {payload.org}")
    org = state.orgs.get(payload.org)
    policy = org.role_catalog.get(payload.new_role) if org else None
    if policy is None:
        raise UnknownRole(f"{payload.org} has no role {payload.new_role!r}")

    is_admin = org is not None and tx.sender in org.admins
    if tx.sender == payload.user and not adding:
        # Self-service is limited to roles anyone may take.
        if not policy.self_assignable and not is_admin:
            raise NotAuthorized(f"role {payload.new_role!r} requires an org admin")
    elif not is_admin:
        raise NotAuthorized("sender is neither the user nor an org admin")

    already_held = (payload.user, payload.org, payload.new_role) in state.ura
    if policy.max_holders is not None and not already_held:
        if role_holder_count(state, payload.org, payload.new_role) >= policy.max_holders:
            raise RoleFull(f"role {payload.new_role!r} is at capacity")

    if not adding:
        state.ura.discard((payload.user, payload.org, payload.old_role))
    state.ura.add((payload.user, payload.org, payload.new_role))
    event = Event.make(
        EVENT_USER_ROLE_UPDATED,
        {
            "user": payload.user,
            "org": payload.org,
            "old_role": payload.old_role,
            "new_role": payload.new_role,
        },
        height,
        tx_index,
    )
    return [event]
