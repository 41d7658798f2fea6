"""Authenticated symmetric encryption and HMAC sealing."""

import pytest

from repro.crypto import mac, symmetric
from repro.crypto.rng import Rng
from repro.errors import IntegrityError, SignatureError


@pytest.fixture
def key(rng):
    return symmetric.new_key(rng)


class TestSeal:
    def test_round_trip(self, key):
        box = symmetric.seal(key, b"plaintext")
        assert symmetric.unseal(key, box) == b"plaintext"

    def test_empty_plaintext(self, key):
        assert symmetric.unseal(key, symmetric.seal(key, b"")) == b""

    def test_large_plaintext(self, key):
        data = bytes(range(256)) * 100
        assert symmetric.unseal(key, symmetric.seal(key, data)) == data

    def test_randomized_nonces(self, key):
        assert symmetric.seal(key, b"x") != symmetric.seal(key, b"x")

    def test_wrong_key_rejected(self, key, rng):
        other = symmetric.new_key(rng)
        box = symmetric.seal(key, b"secret")
        with pytest.raises(IntegrityError):
            symmetric.unseal(other, box)

    def test_ciphertext_tamper_rejected(self, key):
        box = bytearray(symmetric.seal(key, b"secret data"))
        box[symmetric.NONCE_LEN] ^= 1
        with pytest.raises(IntegrityError):
            symmetric.unseal(key, bytes(box))

    def test_tag_tamper_rejected(self, key):
        box = bytearray(symmetric.seal(key, b"secret data"))
        box[-1] ^= 1
        with pytest.raises(IntegrityError):
            symmetric.unseal(key, bytes(box))

    def test_nonce_tamper_rejected(self, key):
        box = bytearray(symmetric.seal(key, b"secret data"))
        box[0] ^= 1
        with pytest.raises(IntegrityError):
            symmetric.unseal(key, bytes(box))

    def test_truncated_box_rejected(self, key):
        with pytest.raises(IntegrityError):
            symmetric.unseal(key, b"short")

    def test_associated_data_binds(self, key):
        box = symmetric.seal(key, b"p", associated_data=b"ctx-a")
        assert symmetric.unseal(key, box, associated_data=b"ctx-a") == b"p"
        with pytest.raises(IntegrityError):
            symmetric.unseal(key, box, associated_data=b"ctx-b")

    def test_bad_key_length_rejected(self):
        with pytest.raises(ValueError):
            symmetric.seal(b"short-key", b"p")
        with pytest.raises(ValueError):
            symmetric.unseal(b"short-key", b"x" * 64)

    def test_plaintext_confidential(self, key):
        """The sealed box must not contain the plaintext verbatim."""
        secret = b"extremely secret proxy key material"
        assert secret not in symmetric.seal(key, secret)


class TestMac:
    def test_tag_verify(self, key):
        t = mac.tag(key, b"msg")
        mac.verify(key, b"msg", t)

    def test_tag_deterministic(self, key):
        assert mac.tag(key, b"m") == mac.tag(key, b"m")

    def test_wrong_message(self, key):
        with pytest.raises(SignatureError):
            mac.verify(key, b"other", mac.tag(key, b"msg"))

    def test_wrong_key(self, key, rng):
        other = symmetric.new_key(rng)
        with pytest.raises(SignatureError):
            mac.verify(other, b"msg", mac.tag(key, b"msg"))

    def test_tag_length(self, key):
        assert len(mac.tag(key, b"m")) == mac.TAG_LEN


# Boxes sealed by the original per-byte implementation (a generator XOR
# and ``hmac.new``) under a fixed key, nonce rng and associated data: the
# sealing fast path must reproduce them byte for byte.
KAT_KEY = bytes(range(32))
KAT_AD = b"kat:associated-data"
KAT_BOXES = {
    0: (
        "45d707ea0e3b2a98689ada6a30dc4af40523ae4f39f2c983480b4930244f5575"
        "cebb54928aa958a1d27748c696ca5817"
    ),
    1: (
        "eb88a9e54252f29d9144e404df867b9ab77a62fe47da68ebbcee22b134a4b5b1"
        "89b3853674f5caa93243fcda2c56552d13"
    ),
    31: (
        "6f1d065905b455c82a1ec26ccc918b1dc01baa75163d4a792fe7930f27dd17fa"
        "9ef0797b59f1439866aeca53b12d25e5a146ab00c400fc2870c845d629d4be67"
        "fbd9ba5b28dcd0d57d47966ee9db37"
    ),
    32: (
        "51e0d07c001a818f4b68b4d7052f03453b68dee6e183043d81b252e6178057a3"
        "cc0529761fd6a152f6aa67b2e8e6df96048db14839b8d637b773376f9839a7e3"
        "8886eb05ed5bd97ea547ea1ce0aa57ce"
    ),
    33: (
        "574ce13ea03f95a421f58e3209e2ce093fc936c60a33bebc9a60301ca9be787f"
        "6826b69b427f6f778d91eef0f2ad64a42b53878a6d162d58323a645cbbf77807"
        "d483667dddbeb54e27bf7d67a70017341d"
    ),
    1000: (
        "891d9031fa21500ae24384ada22859b0ad516c6af1991579d17aeffa4025bb31"
        "0b9785ae4321236c035378182de1751beea171c0af9b46578931640ed2820918"
        "4e3ac62ba9c6424135ec1a5fc4d27b840148a51b9ee23b92312c8630632af185"
        "ef1572e9903d3901930a105925e2e291cf5ebc27819f8d342bbb433780e14280"
        "b884f29bade6fa575d2e819dc83142aa14a74f59cc9d19a650c2d990caccc64a"
        "fdec40d4525a360d514f06e89d50c1428026930742d65d477c5beef34a695cfe"
        "41bfa416136334a836e4d1cc0fce17bd2bb051910062d303fa8190395c0b921c"
        "04589d8934047fe6de5579b89299be933b21fb48985fa107f808032f6609715e"
        "eb47ae8ad09628b0946f667e2937ce6ae87f5ff844eae5229a8970a67ae990df"
        "bf59e1ba92ced89b0bfaf3c89696ebf06cf4bf69d0d4d5014e255199e3613aab"
        "f7f0c0ffe0123b06505babe6c4d739a1e53846da504131bbe67de76a766f2858"
        "c299a3a1da4c9e71105d8f3891a51d364ff7ff663f0ffd348b5474cf240f004c"
        "19e540429ea2b2f4d28333e6660a7d143b1d8206f7d4b14bd8ca13d02b1946d6"
        "6967a7bfa2f969a9b9f7f5327524347ee3295d1de9c98b4d694dc84b76f494a0"
        "cbd125a1da9115e0bce563bbc985819e453b308d782b1d0f62490bdfb54b64cd"
        "08e6c02e6fb23651bd0ed8b3441a0777459f1f9f64ca9c9f332d78bd34bde945"
        "ac389de4c6b51fe1b26d3ab7734e44dd6a3fc6419b7f5341f9411d481064d1af"
        "e5b60bb9a31e5aac17504b2fe598ee816d98e89b7e6bc99f3bebae58dc6e5dc4"
        "9ab60b820ead2e8cb81e7bd6f2756eb48858e5acccd0732300b391a0e314a6db"
        "5ddfd894dc2e93a224cc56b30bc67b648e45676b13878b1e6b6448f9fbc109f2"
        "9f82e96aa71f29fe0e3e715c9dfced1c638bdfe78c6fd204e4c71e8a835ee33f"
        "6ee04aaf79f9ddcfb8309a9881b5e1ce4cd861acafabbe7c784226fca24390d2"
        "f9dcb47bc8b988569b71eb47a97e8004b6dd6c61480158b0a066204c197de9dd"
        "07b15e5eba65de1d38615f2e234c965697c401718aab88da48da8670bee40cac"
        "4c575828b5d6ef79b3e01875111bc37a1d7cee40c0ddf2f0343a09386dc08453"
        "b9e57cd933bdcde0902711b7e5d91832af2294ee66934881f97629773b898d09"
        "be44a55300ac381e2e08a149e3b887383c2e726d918c841dc3b516fc3cb3ebe8"
        "0fe4d035b0c2ea1d40277a3eee4f41bd20a42ca6a7a0825cadbe340257570265"
        "50e6f984d4e75aa17f3ef905ea32ab5bfbdb8ff58a3557f98282aedfef3add0a"
        "f2942123cb296be8de8a8e4d3b3c7b5d2dbe530fcadc88bf39dae1980c6159d8"
        "8833ce05e8974a1aea3b1f73a8878f40e4bf56219c7de533b3fae2f4b58d29f0"
        "4cf9579bc1f6b78988a2abea6df1e0b3476563568ee96ece169bbe59f39eaea0"
        "27f046f8c0b3f60f007d6b65f9ec1f9dbf12a4af7c7b1a48"
    ),
}


def kat_plaintext(length: int) -> bytes:
    return bytes((7 * i + 3) % 256 for i in range(length))


@pytest.mark.parametrize("length", sorted(KAT_BOXES))
def test_known_answer_boxes(length):
    box = bytes.fromhex(KAT_BOXES[length])
    assert len(box) == symmetric.NONCE_LEN + length + symmetric.TAG_LEN
    sealed = symmetric.seal(
        KAT_KEY,
        kat_plaintext(length),
        KAT_AD,
        rng=Rng(seed=b"seal-kat-%d" % length),
    )
    assert sealed == box
    assert symmetric.unseal(KAT_KEY, box, KAT_AD) == kat_plaintext(length)
