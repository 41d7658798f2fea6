"""Schnorr signatures and integrated encryption over a prime-order subgroup.

Public-key proxies (§6.1) need a fresh public/private keypair *per proxy*
("the proxy key embedded in the proxy certificate is a public key from a
public/private key pair").  RSA key generation costs two prime searches,
which is prohibitive per-grant in pure Python; Schnorr key generation is a
single modular exponentiation.  The library therefore offers Schnorr as the
default public-key scheme for proxy keys, with RSA (:mod:`repro.crypto.rsa`)
available wherever the grantor's long-term identity key is RSA.

Keys live in the order-``q`` subgroup of ``Z_p*``.  The default group,
:data:`~repro.crypto.dh.SCHNORR_GROUP`, is a FIPS 186-4 (2048, 256) group:
a 2048-bit prime ``p`` with a 256-bit prime ``q`` dividing ``p - 1`` and
a fixed generator ``g`` of order ``q``, so every exponent is 256 bits and a
signature ``e || s`` is 64 bytes.  Any other prime is taken to be a safe
prime ``p = 2q + 1`` (the RFC 3526 group, the 512-bit test group), signed
in its quadratic-residue subgroup with generator ``g = 4``.  Keys carry only
``p`` on the wire; the group's ``q`` and ``g`` follow from it.

Signatures are the standard Fiat–Shamir Schnorr scheme; the "integrated
encryption" functions implement a DH/ElGamal KEM with the library's
authenticated symmetric cipher, used to seal conventional proxy keys to an
end-server (§6.1 hybrid scheme).  Decryption checks that the sender's
ephemeral value has order ``q``, since the default group's cofactor has
small factors.

Modular exponentiation dominates the uncached verification cost, so this
module carries a fast path with three cooperating pieces:

* **Group-parameter memoization** — ``q``, ``qlen``, ``plen`` and the
  generator are derived once per distinct prime and reused by every
  sign/verify/KEM call (they were previously recomputed per call).
* **Fixed-base comb tables** (:class:`FixedBaseTable`) — for a base that
  recurs (the generator ``g`` of each group, identity keys registered
  with :func:`register_verification_key`, and re-presented proxy keys
  admitted with :func:`admit_possession_key`), exponentiation becomes a
  Lim–Lee comb over 1024 precomputed entries: one modular multiply per
  8 exponent bits plus one squaring per 32, about 7x faster than
  ``pow()`` at 256-bit exponents and 5x at 2047-bit ones.
  Tables self-check against ``pow()`` at build time, and the verification
  fast paths below re-check any *negative* result natively, so a
  corrupted table can slow verification down but never change a verdict.
* **Batch verification** (:func:`verify_batch`) — verifies many
  ``(key, message, signature)`` triples at once.  All generator-side
  values ``g**s_i`` are computed through the shared table and validated
  together by one randomized-linear-combination multi-scalar check
  (small-exponents test à la Bellare–Garay–Rabin): with random weights
  ``z_i``, ``prod(u_i**z_i) == g**(sum(z_i*s_i) mod q)`` where the right
  side is evaluated *natively*, so every fast-path evaluation is
  confirmed against an independent implementation at the cost of small
  exponentiations.  On aggregate failure a bisection isolates and
  repairs the offending entries, preserving exact per-signature error
  attribution.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import symmetric
from repro.crypto.dh import (
    DEFAULT_GROUP,
    SCHNORR_GROUP,
    SCHNORR_ORDER_256,
    TEST_GROUP,
    DhGroup,
)
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.errors import CryptoError, SignatureError

_HASH = hashlib.sha256


# ---------------------------------------------------------------------------
# Group-parameter memoization
# ---------------------------------------------------------------------------

class _GroupParams:
    """Derived constants of one signing group, computed once per prime."""

    __slots__ = ("p", "q", "g", "plen", "qlen")

    def __init__(self, p: int) -> None:
        self.p = p
        if p == SCHNORR_GROUP.p:
            self.q, self.g = SCHNORR_ORDER_256, SCHNORR_GROUP.g
        else:
            # Any other p is a safe prime: 4 = 2**2 is a quadratic
            # residue, so it generates the order-(p-1)/2 subgroup.
            self.q, self.g = (p - 1) // 2, 4
        self.plen = (p.bit_length() + 7) // 8
        self.qlen = (self.q.bit_length() + 7) // 8


_PARAMS: Dict[int, _GroupParams] = {}


def _params(p: int) -> _GroupParams:
    params = _PARAMS.get(p)
    if params is None:
        params = _PARAMS[p] = _GroupParams(p)
    return params


# ---------------------------------------------------------------------------
# Fixed-base comb precomputation
# ---------------------------------------------------------------------------

#: Comb geometry (Lim & Lee, CRYPTO '94): ``_TEETH`` exponent bits, one
#: per tooth, form each table index, and there are ``_SUBTABLES`` tables
#: of ``2**_TEETH`` entries.  The table size is fixed (1024 entries)
#: whatever the exponent length; longer exponents cost more squarings.
_TEETH = 8
_SUBTABLES = 4

#: ``_SPREAD[b]`` is byte ``b`` with bit ``t`` moved to byte ``t``, as 8
#: little-endian bytes of 0 or 1: mapping it over an exponent's bytes
#: lays every bit out in a byte of its own.
_SPREAD = [
    bytes((b >> t) & 1 for t in range(8)) for b in range(1 << _TEETH)
]


class FixedBaseTable:
    """Lim–Lee comb table for exponentiations of one base.

    The exponent's ``8 * cols`` bits are cut into ``_TEETH`` teeth of
    ``cols`` bits each, and each tooth into ``_SUBTABLES`` blocks of
    ``span`` columns.  Entry ``u`` of sub-table ``j`` holds the product
    of ``base**(2**(i*cols + j*span))`` over the set bits ``i`` of ``u``,
    so one column of comb digits costs one multiply per sub-table, and
    ``base**e`` takes ``span - 1`` squarings in all.  For a 256-bit
    exponent (``span`` 8) that is 7 squarings and at most 32 multiplies.

    The table is validated against native ``pow()`` on a deterministic
    pseudo-random exponent at build time, so a construction bug surfaces
    immediately rather than as wrong verification results.  Exponents
    outside ``[0, 2**(8*cols))`` fall back to native ``pow()``.
    """

    __slots__ = ("base", "p", "_bits", "_cols", "_span", "_rows")

    def __init__(self, base: int, p: int, exponent_bits: int) -> None:
        self.base = base
        self.p = p
        # An even span makes each tooth a whole number of bytes.
        span = -(-exponent_bits // (_TEETH * _SUBTABLES))
        span += span & 1
        self._span = span
        self._cols = cols = _SUBTABLES * span
        self._bits = _TEETH * cols
        # powers[i * _SUBTABLES + j] = base ** (2 ** (i*cols + j*span))
        powers = []
        level = base % p
        for _ in range(_TEETH * _SUBTABLES):
            powers.append(level)
            for _ in range(span):
                level = level * level % p
        rows = []
        for j in range(_SUBTABLES):
            row = [1] * (1 << _TEETH)
            for i in range(_TEETH):
                bit, power = 1 << i, powers[i * _SUBTABLES + j]
                for low in range(bit):
                    row[bit | low] = row[low] * power % p
            rows.append(row)
        self._rows = rows
        self._self_check(exponent_bits)

    def _self_check(self, exponent_bits: int) -> None:
        material = b"%d:%d" % (self.p, self.base)
        probe = int.from_bytes(
            _HASH(b"fixed-base-check:" + material).digest()
            * ((exponent_bits + 255) // 256),
            "big",
        ) % (1 << exponent_bits)
        if self.pow(probe) != pow(self.base, probe, self.p):
            raise CryptoError("fixed-base table failed its build self-check")

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod p`` via comb lookups and multiplies."""
        if exponent >> self._bits:  # also true for negative exponents
            return pow(self.base, exponent, self.p)
        cols = self._cols
        # Byte i*cols + c of ``spread`` is bit c of tooth i; OR-ing the
        # teeth together, tooth i shifted by i, leaves column c's comb
        # digit in byte c.
        spread = b"".join(
            map(_SPREAD.__getitem__, exponent.to_bytes(cols, "little"))
        )
        packed = 0
        for tooth in range(_TEETH):
            start = tooth * cols
            packed |= (
                int.from_bytes(spread[start:start + cols], "little") << tooth
            )
        digits = packed.to_bytes(cols, "little")
        p = self.p
        span = self._span
        rows = self._rows
        acc = 1
        for column in range(span - 1, -1, -1):
            acc = acc * acc % p
            for row, digit in zip(rows, digits[column::span]):
                if digit:
                    acc = acc * row[digit] % p
        return acc


#: Master switch for the table fast path.  Benchmarks flip it to measure
#: the plain square-and-multiply baseline; verdicts never depend on it.
_precompute_enabled = True


def set_precompute(enabled: bool) -> bool:
    """Enable/disable fixed-base tables process-wide; returns the previous
    setting (tables are kept, just bypassed while disabled)."""
    global _precompute_enabled
    previous = _precompute_enabled
    _precompute_enabled = bool(enabled)
    return previous


_GENERATOR_TABLES: Dict[int, FixedBaseTable] = {}

#: LRU of tables for verification keys, keyed (p, y).  Bounded because
#: end-servers can see many principals; the generator tables are
#: unbounded but there is one per *group*, of which a process has a few.
_KEY_TABLES: "OrderedDict[Tuple[int, int], FixedBaseTable]" = OrderedDict()
_MAX_KEY_TABLES = 128

#: Guards every check-then-act on ``_KEY_TABLES``: admission tests for a
#: free slot before it inserts, and a lookup moves the entry it found.
_KEY_TABLES_LOCK = threading.Lock()


def _generator_table(params: _GroupParams) -> FixedBaseTable:
    table = _GENERATOR_TABLES.get(params.p)
    if table is None:
        table = _GENERATOR_TABLES[params.p] = FixedBaseTable(
            params.g, params.p, params.q.bit_length()
        )
    return table


def _add_key_table(key: "SchnorrPublicKey", evict: bool) -> bool:
    table_key = (key.group_p, key.y)
    with _KEY_TABLES_LOCK:
        if table_key in _KEY_TABLES:
            _KEY_TABLES.move_to_end(table_key)
            return False
        if not evict and len(_KEY_TABLES) >= _MAX_KEY_TABLES:
            return False
        params = _params(key.group_p)
        table = FixedBaseTable(
            key.y % params.p, params.p, params.q.bit_length()
        )
        while len(_KEY_TABLES) >= _MAX_KEY_TABLES:
            _KEY_TABLES.popitem(last=False)
        _KEY_TABLES[table_key] = table
    return True


def register_verification_key(key: "SchnorrPublicKey") -> bool:
    """Precompute a fixed-base table for a recurring identity key.

    Called by verifiers on first sight of a grantor/identity key, which
    checks a signature on every presentation; the table evicts the least
    recently used one when the store is full.  Proxy keys go through
    :func:`admit_possession_key` instead.  Tables are keyed by ``(p, y)``,
    so a rotated key is a *different* key: the old table simply ages out
    of the LRU and can never answer for the new key.  Returns True when a
    table was newly built.
    """
    return _add_key_table(key, evict=True)


def admit_possession_key(key: "SchnorrPublicKey") -> bool:
    """Precompute a table for a proxy key that has been re-presented.

    Verifiers call this once the chain-prefix cache shows a chain whose
    final link binds ``key`` has verified before, so the key sits in a
    validly signed certificate and its possession proofs recur.  Unlike
    :func:`register_verification_key`, admission never evicts: the key
    gets a table only while the store has a free slot, so a round robin
    over more chains than slots cannot rebuild tables over and over.
    Returns True when a table was newly built.
    """
    return _add_key_table(key, evict=False)


def registered_key_count() -> int:
    """How many verification keys currently hold precomputed tables."""
    return len(_KEY_TABLES)


def clear_key_tables() -> None:
    """Drop all per-key tables (tests / memory pressure)."""
    with _KEY_TABLES_LOCK:
        _KEY_TABLES.clear()


def _gen_pow(params: _GroupParams, exponent: int) -> int:
    """``g ** exponent mod p`` through the group table when enabled."""
    if _precompute_enabled:
        return _generator_table(params).pow(exponent)
    return pow(params.g, exponent, params.p)


def _key_pow(params: _GroupParams, key: "SchnorrPublicKey", exponent: int) -> int:
    """``y ** exponent mod p``, table-accelerated for registered keys."""
    if _precompute_enabled:
        table_key = (key.group_p, key.y)
        with _KEY_TABLES_LOCK:
            table = _KEY_TABLES.get(table_key)
            if table is not None:
                _KEY_TABLES.move_to_end(table_key)
        if table is not None:
            return table.pow(exponent)
    return pow(key.y, exponent, params.p)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchnorrPublicKey:
    """Schnorr public key ``y = g**x mod p``."""

    group_p: int
    y: int

    @property
    def group(self) -> DhGroup:
        return DhGroup(p=self.group_p)

    def to_wire(self) -> dict:
        return {"p": self.group_p, "y": self.y}

    @classmethod
    def from_wire(cls, wire: dict) -> "SchnorrPublicKey":
        return cls(group_p=int(wire["p"]), y=int(wire["y"]))

    def fingerprint(self) -> bytes:
        material = b"%d:%d" % (self.group_p, self.y)
        return _HASH(b"schnorr-fp:" + material).digest()[:16]


@dataclass(frozen=True)
class SchnorrPrivateKey:
    """Schnorr private key ``x`` with its public half."""

    group_p: int
    x: int = field(repr=False)
    y: int

    @property
    def public(self) -> SchnorrPublicKey:
        return SchnorrPublicKey(group_p=self.group_p, y=self.y)


def generate_keypair(
    group: DhGroup = SCHNORR_GROUP, rng: Optional[Rng] = None
) -> SchnorrPrivateKey:
    """Generate a Schnorr keypair (one modexp; cheap enough per proxy)."""
    rng = rng or DEFAULT_RNG
    params = _params(group.p)
    x = rng.int_below(params.q - 1) + 1
    y = _gen_pow(params, x)
    return SchnorrPrivateKey(group_p=group.p, x=x, y=y)


def _challenge(params: _GroupParams, r: int, y: int, message: bytes) -> int:
    plen = params.plen
    digest = _HASH(
        b"schnorr:" + r.to_bytes(plen, "big") + y.to_bytes(plen, "big") + message
    ).digest()
    return int.from_bytes(digest, "big") % params.q


def sign(
    key: SchnorrPrivateKey, message: bytes, rng: Optional[Rng] = None
) -> bytes:
    """Produce a Schnorr signature (e, s) over ``message``."""
    rng = rng or DEFAULT_RNG
    params = _params(key.group_p)
    q = params.q
    k = rng.int_below(q - 1) + 1
    r = _gen_pow(params, k)
    e = _challenge(params, r, key.y, message)
    s = (k + key.x * e) % q
    qlen = params.qlen
    return e.to_bytes(qlen, "big") + s.to_bytes(qlen, "big")


def _parse_signature(
    params: _GroupParams, signature: bytes
) -> Tuple[int, int]:
    """Split and range-check an (e, s) signature; raise SignatureError."""
    qlen = params.qlen
    if len(signature) != 2 * qlen:
        raise SignatureError("schnorr signature has wrong length")
    e = int.from_bytes(signature[:qlen], "big")
    s = int.from_bytes(signature[qlen:], "big")
    if not (0 <= e < params.q and 0 <= s < params.q):
        raise SignatureError("schnorr signature values out of range")
    return e, s


def _commitment(
    params: _GroupParams, key: SchnorrPublicKey, e: int, s: int
) -> int:
    """Recover the signer's commitment r' = g**s * y**(-e) mod p."""
    u = _gen_pow(params, s)
    v = _key_pow(params, key, params.q - e)
    return u * v % params.p


def _native_recheck(
    params: _GroupParams, key: SchnorrPublicKey, message: bytes, e: int, s: int
) -> bool:
    """Re-verify one signature with plain pow() (no tables).

    The fast paths call this before reporting a *failure*, so a damaged
    precomputation table can never turn a valid signature into a
    rejection — the failure verdict always has a native witness.
    """
    r_prime = (
        pow(params.g, s, params.p)
        * pow(key.y, params.q - e, params.p)
    ) % params.p
    return _challenge(params, r_prime, key.y, message) == e


def verify(key: SchnorrPublicKey, message: bytes, signature: bytes) -> None:
    """Verify a Schnorr signature.

    Raises:
        SignatureError: when the signature does not verify.
    """
    params = _params(key.group_p)
    e, s = _parse_signature(params, signature)
    r_prime = _commitment(params, key, e, s)
    if _challenge(params, r_prime, key.y, message) != e:
        if not (_precompute_enabled and _native_recheck(
            params, key, message, e, s
        )):
            raise SignatureError("schnorr signature verification failed")


# ---------------------------------------------------------------------------
# Batch verification
# ---------------------------------------------------------------------------

#: Bit width of the random weights in the small-exponents aggregate test.
#: 32 bits keeps the per-item cost of the independent check negligible
#: while making a silent fast-path miscomputation survive the check with
#: probability ~2**-32 (and any survivor is still caught per item by the
#: challenge-hash comparison, which is deterministic).
_WEIGHT_BITS = 32

#: Weights come from a dedicated seeded generator by default so batch
#: behaviour (including any bisection walk) is reproducible run to run
#: and never perturbs a realm's protocol randomness.
_BATCH_RNG = Rng(seed=b"schnorr-batch-weights")


def _aggregate_ok(
    params: _GroupParams, pairs: Sequence[List[int]], rng: Rng
) -> bool:
    """One multi-scalar check that every pair's u equals g**s.

    ``pairs`` holds ``[s, u]`` entries.  LHS exponentiations use native
    pow with small exponents; the RHS is one native full exponentiation —
    an evaluation path independent of the fixed-base tables under test.
    """
    p, q, g = params.p, params.q, params.g
    lhs = 1
    total = 0
    for s, u in pairs:
        z = rng.int_below((1 << _WEIGHT_BITS) - 1) + 1
        lhs = lhs * pow(u, z, p) % p
        total = (total + z * s) % q
    return lhs == pow(g, total, p)


def _repair_pairs(
    params: _GroupParams, pairs: List[List[int]], rng: Rng
) -> int:
    """Bisect a failing aggregate down to the wrong entries and fix them.

    Mutates ``pairs`` in place (replacing bad u values with their native
    recomputation) and returns the number of aggregate probes performed
    — the ``vcache.batch.fallback_bisections`` telemetry.
    """
    if len(pairs) == 1:
        s, u = pairs[0]
        native = pow(params.g, s, params.p)
        if native != u:
            pairs[0][1] = native
        return 1
    mid = len(pairs) // 2
    probes = 0
    for half in (pairs[:mid], pairs[mid:]):
        probes += 1
        if not _aggregate_ok(params, half, rng):
            probes += _repair_pairs(params, half, rng)
    return probes


def verify_batch(
    items: Sequence[Tuple[SchnorrPublicKey, bytes, bytes]],
    rng: Optional[Rng] = None,
) -> Tuple[List[Optional[SignatureError]], int]:
    """Verify many (key, message, signature) triples, amortized.

    Returns ``(errors, bisection_probes)``: ``errors[i]`` is None when
    item ``i`` verified, else the same :class:`SignatureError` that
    :func:`verify` would raise for it.  Acceptance and rejection are
    decided per item exactly as in sequential verification — the batch
    machinery only changes how the modular exponentiations are computed
    and cross-checked, never what is accepted.
    """
    rng = rng or _BATCH_RNG
    errors: List[Optional[SignatureError]] = [None] * len(items)
    by_group: Dict[int, list] = {}
    for index, (key, message, signature) in enumerate(items):
        params = _params(key.group_p)
        try:
            e, s = _parse_signature(params, signature)
        except SignatureError as exc:
            errors[index] = exc
            continue
        by_group.setdefault(params.p, []).append((index, key, message, e, s))

    probes = 0
    for p, group in by_group.items():
        params = _params(p)
        pairs = [[s, _gen_pow(params, s)] for (_, _, _, _, s) in group]
        if _precompute_enabled and len(pairs) >= 2:
            if not _aggregate_ok(params, pairs, rng):
                probes += _repair_pairs(params, pairs, rng)
        for (index, key, message, e, s), (_, u) in zip(group, pairs):
            v = _key_pow(params, key, params.q - e)
            r_prime = u * v % params.p
            if _challenge(params, r_prime, key.y, message) != e:
                if not (_precompute_enabled and _native_recheck(
                    params, key, message, e, s
                )):
                    errors[index] = SignatureError(
                        "schnorr signature verification failed"
                    )
    return errors, probes


# ---------------------------------------------------------------------------
# Integrated encryption (DH KEM + authenticated symmetric cipher)
# ---------------------------------------------------------------------------

def encrypt_to(
    key: SchnorrPublicKey, plaintext: bytes, rng: Optional[Rng] = None
) -> bytes:
    """Encrypt ``plaintext`` so only the private-key holder can read it.

    Ephemeral-static Diffie–Hellman against ``y``, then authenticated
    symmetric encryption under the derived key.  Wire form::

        ephemeral_public (plen bytes) || sealed box
    """
    rng = rng or DEFAULT_RNG
    params = _params(key.group_p)
    k = rng.int_below(params.q - 1) + 1
    ephemeral = _gen_pow(params, k)
    shared = pow(key.y, k, params.p)
    plen = params.plen
    sym = _HASH(b"ies-kdf:" + shared.to_bytes(plen, "big")).digest()[
        : symmetric.KEY_LEN
    ]
    box = symmetric.seal(sym, plaintext, associated_data=b"schnorr-ies", rng=rng)
    return ephemeral.to_bytes(plen, "big") + box


def decrypt(key: SchnorrPrivateKey, ciphertext: bytes) -> bytes:
    """Decrypt a box produced by :func:`encrypt_to`.

    Raises:
        CryptoError: on truncation, or an ephemeral value that is out of
            range or outside the order-``q`` subgroup (a small-subgroup
            element would leak the private key's residues, Lim–Lee).
        IntegrityError: when the authenticated box fails to open.
    """
    params = _params(key.group_p)
    plen = params.plen
    if len(ciphertext) < plen + symmetric.NONCE_LEN + symmetric.TAG_LEN:
        raise CryptoError("IES ciphertext too short")
    ephemeral = int.from_bytes(ciphertext[:plen], "big")
    if not 2 <= ephemeral <= params.p - 2:
        raise CryptoError("IES ephemeral value out of range")
    if pow(ephemeral, params.q, params.p) != 1:
        raise CryptoError("IES ephemeral value not in the signing subgroup")
    shared = pow(ephemeral, key.x, params.p)
    sym = _HASH(b"ies-kdf:" + shared.to_bytes(plen, "big")).digest()[
        : symmetric.KEY_LEN
    ]
    return symmetric.unseal(
        sym, ciphertext[plen:], associated_data=b"schnorr-ies"
    )


__all__ = [
    "SchnorrPublicKey",
    "SchnorrPrivateKey",
    "FixedBaseTable",
    "generate_keypair",
    "sign",
    "verify",
    "verify_batch",
    "register_verification_key",
    "admit_possession_key",
    "registered_key_count",
    "clear_key_tables",
    "set_precompute",
    "encrypt_to",
    "decrypt",
    "DEFAULT_GROUP",
    "SCHNORR_GROUP",
    "TEST_GROUP",
]
