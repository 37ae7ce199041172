"""rolechain: decentralized role-based access control on a replicated ledger.

User identities, user-role assignments, and role-permission assignments live
in a deterministic contract state machine, replicated by a quorum of
validators over an append-only hash-linked chain of blocks. No central
authentication server exists: any validator answers queries, every change is
an auditable on-chain event.
"""

__version__ = "0.1.0"
