"""Diffie–Hellman key agreement over a safe-prime group, and the group
constants shared with :mod:`repro.crypto.schnorr`.

Used by the network session layer to establish pairwise session keys when no
KDC mediates the exchange (e.g. between accounting servers in different
realms).  The default group is the 2048-bit MODP group from RFC 3526; a small
test group is available for fast unit tests.  :data:`SCHNORR_GROUP`, a
2048-bit prime with a 256-bit prime-order subgroup, is the default group
for Schnorr signatures and is not meant for key agreement here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.crypto.symmetric import KEY_LEN
from repro.errors import CryptoError

#: RFC 3526 group 14 (2048-bit MODP) prime.
RFC3526_PRIME_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

#: A small (512-bit) safe prime for fast tests; generated once with
#: :func:`repro.crypto.primes.generate_safe_prime` (seed ``safe-prime-512``)
#: and fixed here.
TEST_PRIME_512 = int(
    "FAD304E48D3AE4C94F32D880260DB0089FE4B26A35128A58"
    "075E30E284F3CAAF65A5448ACE943F6A95F2F37562EAABB6"
    "1BA0957963E489293105DFB2DD2DB9AB",
    16,
)


#: FIPS 186-4 (L, N) = (2048, 256) group for Schnorr signatures: a 2048-bit
#: prime ``p``, a 256-bit prime ``q`` dividing ``p - 1``, and a generator
#: ``g`` of the order-``q`` subgroup.  Signing exponents are 256 bits here,
#: against 2047 bits in the RFC 3526 safe-prime group.
#:
#: Generated once and fixed here.  To regenerate and compare, run
#: ``repro.crypto.primes.generate_schnorr_group(2048, 256,
#: Rng(seed=b"schnorr-group-2048-256"))``: it draws ``q`` with
#: :func:`~repro.crypto.primes.generate_prime`, rounds random 2048-bit
#: values down to ``p = 1 mod 2q`` (FIPS 186-4 A.1.1.2) until Miller–Rabin
#: accepts one, and takes ``g = 2**((p-1)/q) mod p``.
#:
#: The cofactor ``(p-1)/q`` has small factors (4 * 13 * 131 * ...), so a
#: value received from a peer must be checked to have order ``q``.
SCHNORR_PRIME_2048 = int(
    "C2848908400938922A982721CAC62C48BFA5FF4E68371359"
    "4DE8B58EE2E3062704A2A24F967DC97DD5A9BF7208B70050"
    "12F26BB8860F1DBA24120CCEEF83467B22B91A9EEEFD7652"
    "E6962270E769CCBC41EEC3644C26C9E27288044FB03B413D"
    "FC66534CC97FBB88DBB669AADB9DCF86C93D222D47738366"
    "02B29FB28FE4CD59E02CAFB8E366AD20AB0C5E2B8C9F05C8"
    "A7C0F3286AF7A0EB4534352B44C35C05FB4D86F6FA004FF1"
    "37FCDDB25295F6C90BD4C4B2D9FB8BADA39EE582122BEFA8"
    "28E3E58186271DDA99D0D14E892C88608C938E49D94B0E30"
    "98283A3CE6823FF4DC3ACAF2BB2C0B1415DFF340A5754124"
    "8EB60C4C26D7307AF674B4DEE0278AC5",
    16,
)
SCHNORR_ORDER_256 = int(
    "C0F16AA7D23C96D85C2617443561A14BB61A7F78DD6C721E73A0988C712103D5",
    16,
)
SCHNORR_GENERATOR = int(
    "2B5B71EE7ECB3E55F649837A97015F06E83C8D55BD9AD4D8"
    "CF80377F472797D8F54CB17864D21995E2B55C12D7F6A158"
    "99703E4340169D0C7B81B1490349C27F716C7347B7FB68E0"
    "52367328ABE7F641DD34BC340F78E47B1A8FB70287135C78"
    "81181251DEE7829E052D049BA975B92BB104BDBA16B3CCAB"
    "8029FEDE05449B4AC9CA75CD05E13BA5D2AD51F6A9EE9022"
    "7F9BB234EACE40A3CB69A11353A3A782122FA4697065576A"
    "F6BD047A9BBA193E6797A1EB5C827B2E0BB72FB179A54D24"
    "0A6F2E2878C1E8B9B6AACB35E41130F31F089444E604DD4D"
    "937DD3D00187F2579C8E394212FD64C980B1828F5BA6A814"
    "55286A386DC57EC614C87216420A637A",
    16,
)


@dataclass(frozen=True)
class DhGroup:
    """A Diffie–Hellman group (prime ``p``, generator ``g``)."""

    p: int
    g: int = 2

    @property
    def bit_length(self) -> int:
        return self.p.bit_length()


DEFAULT_GROUP = DhGroup(p=RFC3526_PRIME_2048)
TEST_GROUP = DhGroup(p=TEST_PRIME_512)
#: Signing group for Schnorr proxy and identity keys (not a safe-prime
#: group: use :data:`DEFAULT_GROUP` for key agreement).
SCHNORR_GROUP = DhGroup(p=SCHNORR_PRIME_2048, g=SCHNORR_GENERATOR)


@dataclass(frozen=True)
class DhKeyPair:
    """An ephemeral DH keypair within a group."""

    group: DhGroup
    private: int
    public: int


def generate_keypair(group: DhGroup = DEFAULT_GROUP, rng: Optional[Rng] = None) -> DhKeyPair:
    """Generate an ephemeral keypair in ``group``."""
    rng = rng or DEFAULT_RNG
    # Private exponents of 2*KEY_LEN bytes give a comfortable security margin
    # for the simulated setting.
    private = int.from_bytes(rng.bytes(2 * KEY_LEN), "big") % (group.p - 3) + 2
    public = pow(group.g, private, group.p)
    return DhKeyPair(group=group, private=private, public=public)


def shared_key(own: DhKeyPair, peer_public: int) -> bytes:
    """Derive the shared symmetric key from our keypair and the peer's public value.

    Raises:
        CryptoError: when the peer value is outside the valid range (a
            classic small-subgroup attack vector).
    """
    if not 2 <= peer_public <= own.group.p - 2:
        raise CryptoError("peer DH public value out of range")
    secret = pow(peer_public, own.private, own.group.p)
    material = secret.to_bytes((own.group.p.bit_length() + 7) // 8, "big")
    return hashlib.sha256(b"dh-kdf:" + material).digest()[:KEY_LEN]
