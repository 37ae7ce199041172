"""Wallets: encrypted key custody plus transaction signing.

A wallet file holds the account address, the verifying key, the signing key
sealed under a passphrase-derived AES-256-GCM key, and the password digest
that registration places on chain. The raw signing key never appears in a
serialized wallet and never leaves this module unencrypted.
"""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from . import codec, keys
from .errors import BadPassphrase, SenderMismatch, WeakPassphrase
from .payloads import Payload, SignedTransaction
from .store import fsync_dir

MIN_PASSPHRASE_LENGTH = 8
DEFAULT_KDF_ITERATIONS = 10_000  # tunable; kept modest so test suites stay fast
KDF_SALT_BYTES = 16
# A bulk envelope check runs in at most MAX_SHARES processes, and no process
# takes fewer than MIN_SHARE txs (about 35 ms of verifies), so a fork pays.
MAX_SHARES = 8
MIN_SHARE = 256


@dataclass(frozen=True)
class Wallet(codec.Record):
    """Immutable wallet value; secrets are present only in sealed form."""

    address: str
    public_key: str
    enc_private_key: str
    kdf_salt: str
    kdf_iterations: int
    password_digest: str

    def __post_init__(self):
        codec.require_hex(self.address, 20, "wallet address")
        codec.require_hex(self.public_key, 32, "wallet public_key")
        codec.require_hex(self.kdf_salt, KDF_SALT_BYTES, "wallet kdf_salt")
        codec.require_hex(self.password_digest, 32, "wallet password_digest")
        if not codec.is_hex(self.enc_private_key):
            raise ValueError("wallet enc_private_key must be lowercase hex")
        if type(self.kdf_iterations) is not int or self.kdf_iterations < 1:
            raise ValueError("wallet kdf_iterations must be an integer of at least 1")


def password_digest(passphrase: str, kdf_salt: bytes) -> str:
    """The on-chain registration credential: SHA-256(passphrase bytes || salt)."""
    return codec.sha256_hex(passphrase.encode("utf-8") + kdf_salt)


def create_wallet(
    seed: bytes,
    passphrase: str,
    *,
    kdf_salt: bytes | None = None,
    iterations: int = DEFAULT_KDF_ITERATIONS,
) -> Wallet:
    """Derive a wallet from a 32-byte seed.

    Fully deterministic for a fixed (seed, passphrase, kdf_salt); a fresh
    random salt is drawn when none is supplied.
    """
    if len(passphrase) < MIN_PASSPHRASE_LENGTH:
        raise WeakPassphrase(f"passphrase must be at least {MIN_PASSPHRASE_LENGTH} characters")
    signing_key, public_key = keys.keypair_from_seed(seed)
    salt = os.urandom(KDF_SALT_BYTES) if kdf_salt is None else kdf_salt
    if len(salt) != KDF_SALT_BYTES:
        raise ValueError(f"kdf_salt must be {KDF_SALT_BYTES} bytes")
    sealed = keys.seal(keys.derive_key(passphrase, salt, iterations), signing_key, salt)
    return Wallet(
        address=keys.derive_address(public_key),
        public_key=public_key.hex(),
        enc_private_key=sealed.hex(),
        kdf_salt=salt.hex(),
        kdf_iterations=iterations,
        password_digest=password_digest(passphrase, salt),
    )


def decrypt_signing_key(wallet: Wallet, passphrase: str) -> bytes:
    """Unseal the signing key; raises BadPassphrase on a wrong passphrase."""
    salt = bytes.fromhex(wallet.kdf_salt)
    key = keys.derive_key(passphrase, salt, wallet.kdf_iterations)
    try:
        signing_key = keys.unseal(key, bytes.fromhex(wallet.enc_private_key), salt)
    except keys.InvalidTag:
        raise BadPassphrase("passphrase does not decrypt this wallet") from None
    return signing_key


def sign_transaction(
    wallet: Wallet, passphrase: str, sender: str, nonce: int, payload: Payload
) -> SignedTransaction:
    """Sign (sender, nonce, payload) with the wallet's key. Deterministic."""
    if sender != wallet.address:
        raise SenderMismatch(f"wallet holds {wallet.address}, body names {sender}")
    signing_key = decrypt_signing_key(wallet, passphrase)
    unsigned = SignedTransaction(
        sender=sender, nonce=nonce, payload=payload, public_key=wallet.public_key, signature="0" * 128
    )
    signature = keys.sign(signing_key, unsigned.signing_bytes())
    return replace(unsigned, signature=signature.hex())


def verify_signature(tx: SignedTransaction, public_key: bytes | str) -> bool:
    """True iff the envelope signature is valid under *public_key*; False if malformed."""
    pk_hex = public_key.hex() if isinstance(public_key, bytes) else public_key
    if not codec.is_hex(pk_hex, 32) or not codec.is_hex(tx.signature, 64):
        return False
    return keys.verify(bytes.fromhex(pk_hex), tx.signing_bytes(), bytes.fromhex(tx.signature))


def verify_envelope(tx: SignedTransaction) -> bool:
    """Stateless check: the embedded key binds to the sender and signed this body."""
    if not codec.is_hex(tx.public_key, 32):
        return False
    if keys.derive_address(bytes.fromhex(tx.public_key)) != tx.sender:
        return False
    return verify_signature(tx, tx.public_key)


def _share_count(n: int) -> int:
    """How many processes check *n* envelopes: 1 unless a fork is possible, safe and pays."""
    if not hasattr(os, "fork") or threading.active_count() > 1:  # a threaded fork can deadlock
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, MAX_SHARES, n // MIN_SHARE))


def verify_envelopes(txs) -> bytearray:
    """One byte per tx of *txs*: 1 where :func:`verify_envelope` holds, else 0.

    The txs are split into contiguous shares. The parent checks the first;
    each other share is checked by a forked child, which writes its bytes to a
    pipe and leaves with ``os._exit``. A share whose child could not start,
    replied short or exited non-zero stays 0, as if it failed, so a caller
    that checks each 0 itself never depends on a child. Every child is
    reaped before this returns.
    """
    shares = _share_count(len(txs))
    bounds = [len(txs) * k // shares for k in range(shares + 1)]
    marks = bytearray(len(txs))
    children = []  # (pid, read end of its pipe, share index)
    try:
        for k in range(1, shares):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:  # the child: never returns into the caller
                code = 1
                try:
                    with os.fdopen(write_fd, "wb") as writer:
                        writer.write(bytes(map(verify_envelope, txs[bounds[k]:bounds[k + 1]])))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb"), k))
        marks[:bounds[1]] = map(verify_envelope, txs[:bounds[1]])
    finally:
        for pid, reader, k in children:
            with reader:
                reply = reader.read()
            if os.waitpid(pid, 0)[1] == 0 and len(reply) == bounds[k + 1] - bounds[k]:
                marks[bounds[k]:bounds[k + 1]] = reply
    return marks


def save_wallet(wallet: Wallet, path: str | Path) -> None:
    """Write the wallet file (canonical JSON, owner read/write only), replacing an old one.

    A temp file created with mode 0o600 (``mkstemp``: ``O_CREAT | O_EXCL``) is
    synced, then renamed over *path*: the key is never readable by others.
    The directory is synced last, so the rename survives a crash.
    """
    p = Path(path)
    fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=f".{p.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(codec.canonical_dumps(wallet) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, p)
    except BaseException:
        os.unlink(tmp)
        raise
    fsync_dir(p.parent)


def load_wallet(path: str | Path) -> Wallet:
    return Wallet.from_dict(codec.loads(Path(path).read_text(encoding="utf-8")))
