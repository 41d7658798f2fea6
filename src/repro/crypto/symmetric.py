"""Symmetric authenticated encryption (from scratch, stdlib only).

Kerberos-style proxies (§6.2) seal proxy certificates and session keys under
shared secret keys.  This module provides the sealing primitive: a stream
cipher built from SHA-256 in counter mode, composed encrypt-then-MAC with
HMAC-SHA256.  Decryption verifies the tag before releasing any plaintext, so
any tampering surfaces as :class:`~repro.errors.IntegrityError`.

Wire layout of a sealed box::

    nonce (16) || ciphertext || tag (32)

Keys are raw 32-byte strings wrapped by :class:`~repro.crypto.keys.SymmetricKey`;
this module takes the raw bytes so it stays dependency-free.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Optional

from repro.crypto.mac import tag as _hmac_sha256
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.errors import IntegrityError

KEY_LEN = 32
NONCE_LEN = 16
TAG_LEN = 32
_BLOCK = 32  # SHA-256 output size


def _derive(key: bytes, label: bytes) -> bytes:
    """Derive an independent subkey for encryption vs authentication."""
    return _hmac_sha256(key, b"derive:" + label)


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """SHA-256 counter-mode keystream: block ``i`` is
    ``SHA256(key || nonce || i)``, ``i`` as 8 big-endian bytes."""
    prefix = hashlib.sha256(key + nonce)
    blocks = []
    for counter in range(-(-length // _BLOCK)):
        block = prefix.copy()
        block.update(counter.to_bytes(8, "big"))
        blocks.append(block.digest())
    return b"".join(blocks)[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length strings as two big integers."""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


def seal(
    key: bytes,
    plaintext: bytes,
    associated_data: bytes = b"",
    rng: Optional[Rng] = None,
) -> bytes:
    """Encrypt-then-MAC ``plaintext`` under ``key``.

    ``associated_data`` is authenticated but not encrypted (used to bind a
    sealed box to its context, e.g. the message type carrying it).
    """
    if len(key) != KEY_LEN:
        raise ValueError(f"key must be {KEY_LEN} bytes, got {len(key)}")
    rng = rng or DEFAULT_RNG
    enc_key = _derive(key, b"enc")
    mac_key = _derive(key, b"mac")
    nonce = rng.bytes(NONCE_LEN)
    ciphertext = _xor(plaintext, _keystream(enc_key, nonce, len(plaintext)))
    mac_input = (
        len(associated_data).to_bytes(8, "big")
        + associated_data
        + nonce
        + ciphertext
    )
    tag = _hmac_sha256(mac_key, mac_input)
    return nonce + ciphertext + tag


def unseal(key: bytes, box: bytes, associated_data: bytes = b"") -> bytes:
    """Verify and decrypt a box produced by :func:`seal`.

    Raises:
        IntegrityError: when the tag does not verify (wrong key, tampering,
            or mismatched associated data).
    """
    if len(key) != KEY_LEN:
        raise ValueError(f"key must be {KEY_LEN} bytes, got {len(key)}")
    if len(box) < NONCE_LEN + TAG_LEN:
        raise IntegrityError("sealed box too short")
    enc_key = _derive(key, b"enc")
    mac_key = _derive(key, b"mac")
    nonce = box[:NONCE_LEN]
    ciphertext = box[NONCE_LEN:-TAG_LEN]
    tag = box[-TAG_LEN:]
    mac_input = (
        len(associated_data).to_bytes(8, "big")
        + associated_data
        + nonce
        + ciphertext
    )
    expected = _hmac_sha256(mac_key, mac_input)
    if not _hmac.compare_digest(tag, expected):
        raise IntegrityError("authentication tag mismatch")
    return _xor(ciphertext, _keystream(enc_key, nonce, len(ciphertext)))


def new_key(rng: Optional[Rng] = None) -> bytes:
    """Generate a fresh random symmetric key."""
    return (rng or DEFAULT_RNG).bytes(KEY_LEN)
