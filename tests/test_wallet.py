import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolechain import keys
from rolechain.errors import BadPassphrase, SenderMismatch, WeakPassphrase
from rolechain.payloads import RegisterUserPayload, SignedTransaction
from rolechain.wallet import (
    create_wallet,
    decrypt_signing_key,
    load_wallet,
    save_wallet,
    sign_transaction,
    verify_envelope,
    verify_signature,
)

from conftest import PASSPHRASE, make_wallet

SEED = bytes(range(32))
SALT = b"\x07" * 16


def _wallet(passphrase=PASSPHRASE):
    return create_wallet(SEED, passphrase, kdf_salt=SALT, iterations=10)


def _payload(w):
    return RegisterUserPayload(
        user=w.address, public_key=w.public_key, password_digest=w.password_digest,
        org="acme", requested_role="member",
    )


def test_create_is_deterministic():
    a = create_wallet(b"\x00" * 32, "correct horse aa", kdf_salt=SALT, iterations=10)
    b = create_wallet(b"\x00" * 32, "correct horse aa", kdf_salt=SALT, iterations=10)
    assert a == b
    assert a.address == b.address


def test_distinct_seeds_distinct_addresses():
    a = create_wallet(b"\x01" * 32, PASSPHRASE, kdf_salt=SALT, iterations=10)
    b = create_wallet(b"\x02" * 32, PASSPHRASE, kdf_salt=SALT, iterations=10)
    assert a.address != b.address


def test_weak_passphrase_rejected():
    with pytest.raises(WeakPassphrase):
        create_wallet(SEED, "short")


def test_address_derivation_rule():
    w = _wallet()
    pk = bytes.fromhex(w.public_key)
    import hashlib

    assert w.address == hashlib.sha256(pk).digest()[-20:].hex()


def test_password_digest_rule():
    w = _wallet()
    import hashlib

    assert w.password_digest == hashlib.sha256(PASSPHRASE.encode() + SALT).hexdigest()


def test_sign_then_verify_round_trip():
    w = _wallet()
    tx = sign_transaction(w, PASSPHRASE, w.address, 0, _payload(w))
    assert verify_signature(tx, w.public_key)
    assert verify_envelope(tx)


def test_signing_is_deterministic():
    w = _wallet()
    t1 = sign_transaction(w, PASSPHRASE, w.address, 0, _payload(w))
    t2 = sign_transaction(w, PASSPHRASE, w.address, 0, _payload(w))
    assert t1.signature == t2.signature


def test_wrong_passphrase():
    w = _wallet()
    with pytest.raises(BadPassphrase):
        sign_transaction(w, "not the passphrase", w.address, 0, _payload(w))


def test_sender_mismatch():
    w = _wallet()
    other = make_wallet("someone_else")
    with pytest.raises(SenderMismatch):
        sign_transaction(w, PASSPHRASE, other.address, 0, _payload(w))


def test_verify_with_wrong_key_fails():
    w = _wallet()
    other = make_wallet("other")
    tx = sign_transaction(w, PASSPHRASE, w.address, 0, _payload(w))
    assert not verify_signature(tx, other.public_key)


def test_truncated_or_garbage_signature_fails():
    w = _wallet()
    tx = sign_transaction(w, PASSPHRASE, w.address, 0, _payload(w))
    truncated = SignedTransaction(
        sender=tx.sender, nonce=tx.nonce, payload=tx.payload,
        public_key=tx.public_key, signature=tx.signature[:64],
    )
    assert not verify_signature(truncated, w.public_key)
    assert not verify_signature(tx, "zz")


def test_every_payload_field_mutation_invalidates_signature():
    w = _wallet()
    tx = sign_transaction(w, PASSPHRASE, w.address, 0, _payload(w))
    base = tx.to_dict()
    for key in base["payload"]:
        mutated = json.loads(json.dumps(base))
        value = mutated["payload"][key]
        mutated["payload"][key] = value + "x" if isinstance(value, str) else "tampered"
        try:
            forged = SignedTransaction.from_dict(mutated)
        except ValueError:
            continue  # mutation broke the type invariants: rejected even earlier
        assert not verify_signature(forged, w.public_key), f"field {key}"


def test_every_preimage_byte_mutation_invalidates_signature():
    w = _wallet()
    tx = sign_transaction(w, PASSPHRASE, w.address, 0, _payload(w))
    message = tx.signing_bytes()
    sig = bytes.fromhex(tx.signature)
    pk = bytes.fromhex(w.public_key)
    assert keys.verify(pk, message, sig)
    for pos in range(len(message)):
        corrupted = bytearray(message)
        corrupted[pos] ^= 0x01
        assert not keys.verify(pk, bytes(corrupted), sig), f"byte {pos}"


def test_encrypt_decrypt_round_trip():
    w = _wallet()
    assert decrypt_signing_key(w, PASSPHRASE) == SEED


@settings(max_examples=25, deadline=None)
@given(
    seed=st.binary(min_size=32, max_size=32),
    passphrase=st.text(min_size=8, max_size=24),
)
def test_round_trip_property(seed, passphrase):
    w = create_wallet(seed, passphrase, kdf_salt=SALT, iterations=10)
    assert decrypt_signing_key(w, passphrase) == seed
    pk = bytes.fromhex(w.public_key)
    assert keys.derive_address(pk) == w.address
    sig = keys.sign(seed, b"message")
    assert keys.verify(pk, b"message", sig)


def test_wallet_file_contains_no_raw_key_material(tmp_path):
    w = _wallet()
    path = tmp_path / "w.json"
    save_wallet(w, path)
    blob = path.read_bytes()
    assert SEED not in blob
    assert SEED.hex().encode() not in blob
    assert PASSPHRASE.encode() not in blob
    assert load_wallet(path) == w


def test_wallet_file_permissions(tmp_path):
    path = tmp_path / "w.json"
    save_wallet(_wallet(), path)
    assert path.stat().st_mode & 0o777 == 0o600


def test_wallet_file_is_private_from_creation_without_chmod(tmp_path, monkeypatch):
    """With chmod a no-op, a new file and an overwritten 0o644 one both end 0o600."""
    monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
    fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
    umask = os.umask(0o022)
    try:
        old.write_text("{}\n")
        assert old.stat().st_mode & 0o777 == 0o644
        save_wallet(_wallet(), fresh)
        save_wallet(_wallet(), old)
    finally:
        os.umask(umask)
    for path in (fresh, old):
        assert path.stat().st_mode & 0o777 == 0o600
        assert load_wallet(path) == _wallet()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "old.json"]


def test_address_collision_freedom_at_desk_scale():
    import hashlib

    addresses = set()
    for i in range(10_000):
        seed = hashlib.sha256(b"collision-scan-%d" % i).digest()
        _, pk = keys.keypair_from_seed(seed)
        addresses.add(keys.derive_address(pk))
    assert len(addresses) == 10_000


@pytest.mark.parametrize("field, value", [
    ("address", "AB" * 20),
    ("address", "ab" * 19),
    ("public_key", "zz" * 32),
    ("kdf_salt", "07" * 15),
    ("password_digest", None),
    ("enc_private_key", "not hex"),
    ("kdf_iterations", "10"),
    ("kdf_iterations", 0),
    ("kdf_iterations", True),
    ("kdf_iterations", 10.0),
])
def test_a_malformed_wallet_file_is_refused_at_load(tmp_path, field, value):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_wallet().to_dict(), field: value}), "utf-8")
    with pytest.raises(ValueError, match=field):
        load_wallet(path)
