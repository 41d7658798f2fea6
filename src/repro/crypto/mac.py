"""HMAC-based "conventional signatures".

With conventional (shared-key) cryptography, the paper's square-bracket
notation ``[x]_K`` is an integrity seal under key ``K`` rather than a true
public-key signature (§2 footnote 2, §6.2).  This module provides that
primitive: HMAC-SHA256 tags that can be created and verified by anyone who
holds the key — exactly the trust model of a Kerberos session or proxy key.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from repro.errors import SignatureError

TAG_LEN = 32


def tag(key: bytes, message: bytes) -> bytes:
    """Compute the HMAC-SHA256 tag of ``message`` under ``key``.

    Not the one-shot ``hmac.digest``, which is no faster: CPython
    releases the GIL around every call of it, so a thread that seals or
    tags under contention gives the interpreter away each time and may
    wait a whole switch interval to get it back.  An ``hmac.new`` object
    keeps the GIL for messages under 2 KiB.
    """
    return _hmac.new(key, message, hashlib.sha256).digest()


def verify(key: bytes, message: bytes, candidate: bytes) -> None:
    """Verify an HMAC tag in constant time.

    Raises:
        SignatureError: when the tag does not match.
    """
    expected = tag(key, message)
    if not _hmac.compare_digest(expected, candidate):
        raise SignatureError("HMAC verification failed")
