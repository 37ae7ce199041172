"""Low-level key material: Ed25519 signing, address derivation, key encryption.

An account address is the last 20 bytes of SHA-256 over the raw 32-byte
Ed25519 verifying key, rendered as 40 lowercase hex characters. Signing keys
at rest are sealed with AES-256-GCM under a PBKDF2-HMAC-SHA256 derived key.
"""

from __future__ import annotations

import hashlib

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

SEED_BYTES = 32
PUBLIC_KEY_BYTES = 32
ADDRESS_BYTES = 20


def keypair_from_seed(seed: bytes) -> tuple[bytes, bytes]:
    """Derive the (signing key, verifying key) raw byte pair from a 32-byte seed."""
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes")
    sk = Ed25519PrivateKey.from_private_bytes(seed)
    return seed, sk.public_key().public_bytes_raw()


def derive_address(public_key: bytes) -> str:
    """Address = last 20 bytes of SHA-256(public key), lowercase hex."""
    if len(public_key) != PUBLIC_KEY_BYTES:
        raise ValueError(f"public key must be {PUBLIC_KEY_BYTES} bytes")
    return hashlib.sha256(public_key).digest()[-ADDRESS_BYTES:].hex()


def sign(signing_key: bytes, message: bytes) -> bytes:
    """Deterministic Ed25519 signature (64 bytes) over *message*."""
    return Ed25519PrivateKey.from_private_bytes(signing_key).sign(message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff *signature* is valid; False on any malformed input."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def derive_key(passphrase: str, salt: bytes, iterations: int) -> bytes:
    """PBKDF2-HMAC-SHA256 key for sealing the signing key."""
    return hashlib.pbkdf2_hmac("sha256", passphrase.encode("utf-8"), salt, iterations)


def _seal_nonce(salt: bytes) -> bytes:
    # The AES key is unique per salt, so a salt-derived nonce is never reused.
    # Deriving it (rather than drawing randomness) keeps wallet files
    # reproducible for a fixed (seed, passphrase, salt).
    return hashlib.sha256(salt + b"rolechain-wallet-nonce").digest()[:12]


def seal(key: bytes, plaintext: bytes, salt: bytes) -> bytes:
    """Authenticated encryption of *plaintext* (nonce derived from *salt*)."""
    return AESGCM(key).encrypt(_seal_nonce(salt), plaintext, b"")


def unseal(key: bytes, ciphertext: bytes, salt: bytes) -> bytes:
    """Decrypt and authenticate; raises InvalidTag on a wrong key or tamper."""
    return AESGCM(key).decrypt(_seal_nonce(salt), ciphertext, b"")
