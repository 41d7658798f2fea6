"""Schnorr signatures, integrated encryption, and Diffie-Hellman."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import dh, schnorr
from repro.crypto.dh import TEST_GROUP
from repro.crypto.primes import generate_schnorr_group, is_probable_prime
from repro.crypto.rng import Rng
from repro.errors import CryptoError, IntegrityError, SignatureError


@pytest.fixture
def key(rng):
    return schnorr.generate_keypair(TEST_GROUP, rng=rng)


class TestSchnorrSignatures:
    def test_sign_verify(self, key, rng):
        sig = schnorr.sign(key, b"message", rng=rng)
        schnorr.verify(key.public, b"message", sig)

    def test_wrong_message(self, key, rng):
        sig = schnorr.sign(key, b"message", rng=rng)
        with pytest.raises(SignatureError):
            schnorr.verify(key.public, b"other", sig)

    def test_tampered_signature(self, key, rng):
        sig = bytearray(schnorr.sign(key, b"m", rng=rng))
        sig[5] ^= 1
        with pytest.raises(SignatureError):
            schnorr.verify(key.public, b"m", bytes(sig))

    def test_wrong_key(self, key, rng):
        other = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        sig = schnorr.sign(key, b"m", rng=rng)
        with pytest.raises(SignatureError):
            schnorr.verify(other.public, b"m", sig)

    def test_bad_length(self, key):
        with pytest.raises(SignatureError):
            schnorr.verify(key.public, b"m", b"\x00" * 7)

    def test_signatures_randomized(self, key):
        assert schnorr.sign(key, b"m") != schnorr.sign(key, b"m")

    def test_public_wire_round_trip(self, key):
        pub = schnorr.SchnorrPublicKey.from_wire(key.public.to_wire())
        assert pub == key.public

    def test_fingerprint_distinct(self, key, rng):
        other = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        assert key.public.fingerprint() != other.public.fingerprint()


class TestSchnorrIes:
    def test_round_trip(self, key, rng):
        box = schnorr.encrypt_to(key.public, b"proxy key bytes", rng=rng)
        assert schnorr.decrypt(key, box) == b"proxy key bytes"

    def test_randomized(self, key):
        assert schnorr.encrypt_to(key.public, b"x") != schnorr.encrypt_to(
            key.public, b"x"
        )

    def test_wrong_key(self, key, rng):
        other = schnorr.generate_keypair(TEST_GROUP, rng=rng)
        box = schnorr.encrypt_to(key.public, b"secret")
        with pytest.raises(IntegrityError):
            schnorr.decrypt(other, box)

    def test_tamper_detected(self, key):
        box = bytearray(schnorr.encrypt_to(key.public, b"secret"))
        box[-1] ^= 1
        with pytest.raises(IntegrityError):
            schnorr.decrypt(key, bytes(box))

    def test_truncated(self, key):
        with pytest.raises(CryptoError):
            schnorr.decrypt(key, b"tiny")

    def test_plaintext_confidential(self, key):
        secret = b"very secret conventional proxy key"
        assert secret not in schnorr.encrypt_to(key.public, secret)


class TestDiffieHellman:
    def test_agreement(self, rng):
        a = dh.generate_keypair(TEST_GROUP, rng=rng)
        b = dh.generate_keypair(TEST_GROUP, rng=rng)
        assert dh.shared_key(a, b.public) == dh.shared_key(b, a.public)

    def test_distinct_pairs_distinct_keys(self, rng):
        a = dh.generate_keypair(TEST_GROUP, rng=rng)
        b = dh.generate_keypair(TEST_GROUP, rng=rng)
        c = dh.generate_keypair(TEST_GROUP, rng=rng)
        assert dh.shared_key(a, b.public) != dh.shared_key(a, c.public)

    def test_out_of_range_peer_rejected(self, rng):
        a = dh.generate_keypair(TEST_GROUP, rng=rng)
        with pytest.raises(CryptoError):
            dh.shared_key(a, 0)
        with pytest.raises(CryptoError):
            dh.shared_key(a, TEST_GROUP.p - 1)
        with pytest.raises(CryptoError):
            dh.shared_key(a, TEST_GROUP.p + 5)

    def test_key_length(self, rng):
        a = dh.generate_keypair(TEST_GROUP, rng=rng)
        b = dh.generate_keypair(TEST_GROUP, rng=rng)
        assert len(dh.shared_key(a, b.public)) == 32

    def test_default_group_is_rfc3526(self):
        assert dh.DEFAULT_GROUP.p == dh.RFC3526_PRIME_2048
        assert dh.DEFAULT_GROUP.bit_length == 2048


class TestSchnorrGroup:
    """The default (2048, 256) signing group's embedded constants."""

    def test_sizes(self):
        assert dh.SCHNORR_GROUP.p.bit_length() == 2048
        assert dh.SCHNORR_ORDER_256.bit_length() == 256

    def test_p_and_q_prime(self):
        rng = Rng(seed=b"schnorr-group-check")
        assert is_probable_prime(dh.SCHNORR_GROUP.p, rng=rng)
        assert is_probable_prime(dh.SCHNORR_ORDER_256, rng=rng)

    def test_q_divides_p_minus_1(self):
        assert (dh.SCHNORR_GROUP.p - 1) % dh.SCHNORR_ORDER_256 == 0

    def test_generator_has_order_q(self):
        p, g = dh.SCHNORR_GROUP.p, dh.SCHNORR_GROUP.g
        assert 2 <= g <= p - 1
        assert g != 1
        assert pow(g, dh.SCHNORR_ORDER_256, p) == 1

    def test_regenerates_from_recorded_seed(self):
        assert generate_schnorr_group(
            2048, 256, Rng(seed=b"schnorr-group-2048-256")
        ) == (dh.SCHNORR_GROUP.p, dh.SCHNORR_ORDER_256, dh.SCHNORR_GROUP.g)

    def test_default_keys_and_signatures(self, rng):
        key = schnorr.generate_keypair(rng=rng)
        assert key.group_p == dh.SCHNORR_GROUP.p
        assert 1 <= key.x < dh.SCHNORR_ORDER_256
        sig = schnorr.sign(key, b"message", rng=rng)
        assert len(sig) == 64
        schnorr.verify(key.public, b"message", sig)
        assert set(key.public.to_wire()) == {"p", "y"}

    def test_safe_prime_groups_keep_their_derivation(self):
        params = schnorr._params(TEST_GROUP.p)
        assert params.q == (TEST_GROUP.p - 1) // 2
        assert params.g == 4


def _small_order_element(p, order):
    """An element of ``Z_p*`` of exactly ``order`` (a prime dividing p-1)."""
    for h in range(2, 1000):
        element = pow(h, (p - 1) // order, p)
        if element != 1:
            return element
    raise AssertionError("no element of the requested order")


class TestIesSubgroupCheck:
    @pytest.fixture
    def server(self, rng):
        return schnorr.generate_keypair(dh.SCHNORR_GROUP, rng=rng)

    def test_small_order_ephemeral_rejected(self, server, rng):
        p = dh.SCHNORR_GROUP.p
        assert ((p - 1) // dh.SCHNORR_ORDER_256) % 13 == 0
        hostile = _small_order_element(p, 13)
        assert pow(hostile, 13, p) == 1
        box = schnorr.encrypt_to(server.public, b"secret", rng=rng)
        forged = hostile.to_bytes(256, "big") + box[256:]
        with pytest.raises(CryptoError, match="subgroup"):
            schnorr.decrypt(server, forged)

    def test_valid_box_still_opens(self, server, rng):
        box = schnorr.encrypt_to(server.public, b"proxy key", rng=rng)
        assert len(box) > 256
        assert schnorr.decrypt(server, box) == b"proxy key"

    def test_safe_prime_group_non_residue_rejected(self, key, rng):
        # In a safe-prime group the only element outside the signing
        # subgroup that passes the range check has order 2q; 2 generates
        # it when it is a non-residue, otherwise p - 4 does.
        p = TEST_GROUP.p
        q = (p - 1) // 2
        hostile = 2 if pow(2, q, p) != 1 else p - 4
        assert pow(hostile, q, p) != 1
        box = schnorr.encrypt_to(key.public, b"secret", rng=rng)
        plen = (p.bit_length() + 7) // 8
        forged = hostile.to_bytes(plen, "big") + box[plen:]
        with pytest.raises(CryptoError, match="subgroup"):
            schnorr.decrypt(key, forged)


COMPAT_GROUPS = {
    "test-512": TEST_GROUP,
    "rfc3526": dh.DEFAULT_GROUP,
    "schnorr-2048-256": dh.SCHNORR_GROUP,
}


class TestGroupCompatibility:
    @pytest.mark.parametrize(
        "group", list(COMPAT_GROUPS.values()), ids=list(COMPAT_GROUPS)
    )
    def test_sign_verify_batch_in_group(self, group):
        rng = Rng(seed=b"compat-%d" % (group.p % 997))
        keys = [schnorr.generate_keypair(group, rng=rng) for _ in range(3)]
        items = []
        for i, key in enumerate(keys):
            message = b"m%d" % i
            signature = schnorr.sign(key, message, rng=rng)
            schnorr.verify(key.public, message, signature)
            items.append((key.public, message, signature))
        errors, _ = schnorr.verify_batch(items, rng=Rng(seed=b"w"))
        assert errors == [None, None, None]
        with pytest.raises(SignatureError):
            schnorr.verify(keys[0].public, b"other", items[0][2])

    @pytest.mark.parametrize(
        "signing,checking",
        list(itertools.permutations(COMPAT_GROUPS.values(), 2)),
        ids=[
            f"{a}-vs-{b}" for a, b in itertools.permutations(COMPAT_GROUPS, 2)
        ],
    )
    def test_cross_group_signature_fails_cleanly(self, signing, checking):
        rng = Rng(seed=b"cross-group")
        signer = schnorr.generate_keypair(signing, rng=rng)
        other = schnorr.generate_keypair(checking, rng=rng)
        signature = schnorr.sign(signer, b"msg", rng=rng)
        with pytest.raises(SignatureError):
            schnorr.verify(other.public, b"msg", signature)

    def test_mixed_group_batch_matches_sequential(self):
        rng = Rng(seed=b"mixed-batch")
        keys = [
            schnorr.generate_keypair(group, rng=rng)
            for group in (TEST_GROUP, dh.DEFAULT_GROUP, dh.SCHNORR_GROUP)
        ]
        sigs = [schnorr.sign(key, b"m", rng=rng) for key in keys]
        items = []
        for i, key in enumerate(keys):
            items.append((key.public, b"m", sigs[i]))  # valid
            items.append((key.public, b"x", sigs[i]))  # wrong message
            items.append((key.public, b"m", sigs[i - 1]))  # other group
            forged = bytearray(sigs[i])
            forged[-1] ^= 1
            items.append((key.public, b"m", bytes(forged)))  # tampered
        batch, _ = schnorr.verify_batch(items, rng=Rng(seed=b"w"))
        sequential = []
        for key, message, signature in items:
            try:
                schnorr.verify(key, message, signature)
                sequential.append(None)
            except SignatureError as exc:
                sequential.append(str(exc))
        assert [None if e is None else str(e) for e in batch] == sequential
        assert sequential[0::4] == [None, None, None]
        assert all(e is not None for i, e in enumerate(sequential) if i % 4)


class TestCombTable:
    """The Lim–Lee comb must agree with native pow() on every exponent."""

    @pytest.fixture(params=list(COMPAT_GROUPS.values()), ids=list(COMPAT_GROUPS))
    def params(self, request):
        return schnorr._params(request.param.p)

    @pytest.mark.parametrize(
        "group", list(COMPAT_GROUPS.values()), ids=list(COMPAT_GROUPS)
    )
    @settings(max_examples=25, deadline=None)
    @given(exponent=st.integers(min_value=0, max_value=1 << 2048))
    def test_pow_matches_native(self, group, exponent):
        params = schnorr._params(group.p)
        table = schnorr._generator_table(params)
        for e in (exponent % params.q, exponent):
            assert table.pow(e) == pow(params.g, e, params.p)

    def test_edge_exponents(self, params):
        table = schnorr._generator_table(params)
        beyond = 1 << table._bits  # first exponent past the comb's range
        for e in (0, 1, params.q - 1, beyond - 1, beyond, beyond + 1):
            assert table.pow(e) == pow(params.g, e, params.p)

    def test_any_base(self, params):
        base = pow(params.g, 0xC0FFEE, params.p)
        table = schnorr.FixedBaseTable(base, params.p, params.q.bit_length())
        for e in (0, 1, params.q // 3, params.q - 1):
            assert table.pow(e) == pow(base, e, params.p)

    def test_damaged_build_fails_its_self_check(self):
        p = TEST_GROUP.p

        class DamagedTable(schnorr.FixedBaseTable):
            __slots__ = ()

            def _self_check(self, exponent_bits):
                self._rows[0] = [1] + [
                    (entry * 3) % p for entry in self._rows[0][1:]
                ]
                super()._self_check(exponent_bits)

        params = schnorr._params(p)
        with pytest.raises(CryptoError, match="build self-check"):
            DamagedTable(params.g, p, params.q.bit_length())
