"""Error vocabulary.

Every contract-level failure carries a stable machine-readable ``code`` (the
class name) so the HTTP service and the CLI can surface it unchanged. The
sets at the bottom are the closed vocabulary the API layer is tested against.
"""

from __future__ import annotations


class RoleChainError(Exception):
    """Base class; ``code`` is the wire-visible error identifier."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- transaction / contract errors -----------------------------------------

class TransactionError(RoleChainError):
    """A transaction was rejected before its first write: the state it ran on is as it was."""


class AlreadyRegistered(TransactionError):
    pass


class UnknownOrg(TransactionError):
    pass


class UnknownRole(TransactionError):
    pass


class NotEligible(TransactionError):
    pass


class RoleFull(TransactionError):
    pass


class AddressMismatch(TransactionError):
    pass


class NotRegistered(TransactionError):
    pass


class NoSuchAssignment(TransactionError):
    pass


class NotAuthorized(TransactionError):
    pass


class DuplicateGrant(TransactionError):
    pass


class NotGranted(TransactionError):
    pass


class BadNonce(TransactionError):
    pass


class BadSignature(TransactionError):
    pass


# --- wallet errors ----------------------------------------------------------

class WalletError(RoleChainError):
    pass


class WeakPassphrase(WalletError):
    pass


class BadPassphrase(WalletError):
    pass


class SenderMismatch(WalletError):
    pass


# --- chain / ledger errors --------------------------------------------------

class ChainError(RoleChainError):
    pass


class LinkMismatch(ChainError):
    pass


class HeightGap(ChainError):
    pass


class RootMismatch(ChainError):
    pass


class InvalidTransaction(ChainError):
    """Block construction aborted: transaction *index* failed with *reason*."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"transaction {index} invalid: {reason}")
        self.index = index
        self.reason = reason


class ReplayDivergence(RoleChainError):
    def __init__(self, height: int, message: str):
        super().__init__(message)
        self.height = height


# --- storage ----------------------------------------------------------------

class CorruptStore(RoleChainError):
    def __init__(self, height: int, message: str):
        super().__init__(message)
        self.height = height


# --- simulation -------------------------------------------------------------

class SimTimeout(RoleChainError):
    """Network did not reach quiescence in the tick budget; carries the partial report."""

    def __init__(self, ticks: int, report: dict):
        super().__init__(f"not quiescent after {ticks} ticks")
        self.report = report

    @property
    def code(self) -> str:
        return "Timeout"


CONTRACT_ERROR_CODES = frozenset({
    "AlreadyRegistered", "UnknownOrg", "UnknownRole", "NotEligible", "RoleFull",
    "AddressMismatch", "NotRegistered", "NoSuchAssignment", "NotAuthorized",
    "DuplicateGrant", "NotGranted", "BadNonce", "BadSignature",
    "LinkMismatch", "HeightGap", "RootMismatch", "InvalidTransaction",
    "ReplayDivergence", "CorruptStore", "Timeout",
})

# Codes the HTTP layer may add: request-shape problems, and no up validator to submit to.
API_ERROR_CODES = CONTRACT_ERROR_CODES | frozenset({
    "Malformed", "MissingParam", "NotFound", "Unavailable",
})
