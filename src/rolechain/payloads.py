"""Transaction wire types: the four contract payloads and the signed envelope.

The signing preimage for an envelope is the canonical JSON of
``{"nonce": ..., "payload": ..., "sender": ...}``; the full wire form adds
``public_key`` and ``signature``. A transaction id is the SHA-256 of the full
canonical wire bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union, get_args

from . import codec
from .state import Permission

KIND_REGISTER_USER = "register_user"
KIND_UPDATE_USER_ROLE = "update_user_role"
KIND_GRANT_PERMISSION = "grant_permission"
KIND_REVOKE_PERMISSION = "revoke_permission"


class _Payload(codec.Record):
    """A contract call's wire form: its fields plus its ``kind``."""

    kind: ClassVar[str]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **super().to_dict()}


@dataclass(frozen=True)
class RegisterUserPayload(_Payload):
    user: str
    public_key: str
    password_digest: str
    org: str
    requested_role: str

    kind = KIND_REGISTER_USER

    def __post_init__(self):
        codec.require_hex(self.user, 20, "user address")
        codec.require_hex(self.public_key, 32, "public key")
        codec.require_hex(self.password_digest, 32, "password digest")


@dataclass(frozen=True)
class UpdateUserRolePayload(_Payload):
    user: str
    org: str
    old_role: str
    new_role: str

    kind = KIND_UPDATE_USER_ROLE

    def __post_init__(self):
        codec.require_hex(self.user, 20, "user address")
        if self.old_role == self.new_role:
            raise ValueError("old_role and new_role must differ")


@dataclass(frozen=True)
class _PermissionEdit(_Payload):
    """One (org, role, permission) triple to add or remove; the subclass says which."""

    org: str
    role: str
    permission: Permission


class GrantPermissionPayload(_PermissionEdit):
    kind = KIND_GRANT_PERMISSION


class RevokePermissionPayload(_PermissionEdit):
    kind = KIND_REVOKE_PERMISSION


Payload = Union[
    RegisterUserPayload,
    UpdateUserRolePayload,
    GrantPermissionPayload,
    RevokePermissionPayload,
]

_PAYLOAD_TYPES = {cls.kind: cls for cls in get_args(Payload)}


def payload_from_dict(d: dict) -> Payload:
    kind = d.get("kind")
    cls = _PAYLOAD_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown payload kind {kind!r}")
    return cls.from_dict(d)


@dataclass(frozen=True)
class SignedTransaction(codec.Record):
    """A single contract call, authenticated by its sender."""

    sender: str
    nonce: int
    payload: Payload
    public_key: str
    signature: str

    decoders = {"payload": payload_from_dict}

    def __post_init__(self):
        codec.require_hex(self.sender, 20, "sender address")
        if codec.require_int(self.nonce, "nonce") < 0:
            raise ValueError("nonce must be a non-negative integer")

    def signing_bytes(self) -> bytes:
        return codec.canonical_bytes(
            {"nonce": self.nonce, "payload": self.payload, "sender": self.sender}
        )

    def wire_bytes(self) -> bytes:
        """The canonical bytes of this tx; their digest, its id, is kept if it was not yet."""
        raw = codec.canonical_bytes(self)
        if "_tx_id" not in self.__dict__:
            self.__dict__["_tx_id"] = codec.sha256_hex(raw)
        return raw

    @property
    def tx_id(self) -> str:
        # Hashed once per object. The cache sits in the instance dict, not in a
        # field, so equality, the wire form and dataclasses.replace ignore it.
        if "_tx_id" not in self.__dict__:
            self.__dict__["_tx_id"] = codec.digest(self)
        return self.__dict__["_tx_id"]
