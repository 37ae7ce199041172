"""rolechain: decentralized role-based access control on a replicated ledger.

User identities, user-role assignments, and role-permission assignments live
in a deterministic contract state machine, replicated by a quorum of
validators over an append-only hash-linked chain of blocks. No central
authentication server exists: any validator answers queries, every change is
an auditable on-chain event.
"""

__version__ = "0.1.0"

from .errors import RoleChainError
from .ledger import (
    Block, BlockHeader, Chain, append_block, build_block, hash_header, replay, verify_chain,
)
from .payloads import (
    GrantPermissionPayload,
    RegisterUserPayload,
    RevokePermissionPayload,
    SignedTransaction,
    UpdateUserRolePayload,
)
from .sco import check_permission, grant_permission, revoke_permission
from .scu import register_user, update_user_role
from .state import (
    Event,
    OrgRecord,
    Permission,
    RolePolicy,
    UserRecord,
    WorldState,
    apply_transaction,
    query_roles,
    query_user,
    state_root,
)
from .wallet import Wallet, create_wallet, sign_transaction, verify_signature

__all__ = [
    "__version__",
    "RoleChainError",
    "Block", "BlockHeader", "Chain", "append_block", "build_block", "hash_header", "replay",
    "verify_chain",
    "GrantPermissionPayload", "RegisterUserPayload", "RevokePermissionPayload",
    "SignedTransaction", "UpdateUserRolePayload",
    "check_permission", "grant_permission", "revoke_permission",
    "register_user", "update_user_role",
    "Event", "OrgRecord", "Permission", "RolePolicy", "UserRecord", "WorldState",
    "apply_transaction", "query_roles", "query_user", "state_root",
    "Wallet", "create_wallet", "sign_transaction", "verify_signature",
]
