"""Comb tables for re-presented proxy keys: faster, never a different verdict.

When the chain-prefix cache restores a Fig. 4 chain's final link, the
verifier admits that link's Schnorr proxy key to the per-key table store,
so the possession proof of every later presentation is checked through a
table.  These tests pin down what that may and may not change:

* admission never evicts, so a round robin over more chains than table
  slots builds each table at most once and never displaces an identity
  key;
* the batched and sequential walks admit the same keys;
* forged and swapped possession proofs fail exactly as they do with
  tables off, and ``set_precompute(False)`` changes no verdict.
"""

import collections
import dataclasses
import sys
import threading

import pytest

from repro.clock import SimulatedClock
from repro.core.evaluation import RequestContext
from repro.core.presentation import present
from repro.core.proxy import delegate_cascade, grant_public
from repro.core.restrictions import Grantee
from repro.core.vcache import DEFAULT_CONFIG, override
from repro.core.verification import ProxyVerifier, PublicKeyCrypto
from repro.crypto import schnorr
from repro.crypto.dh import TEST_GROUP
from repro.crypto.rng import Rng
from repro.crypto.signature import SchnorrSigner
from repro.encoding.identifiers import PrincipalId
from repro.errors import ProxyVerificationError, ReproError

START = 1_000_000.0
ALICE = PrincipalId("alice")
CAROL = PrincipalId("carol")
SERVER = PrincipalId("server")

BATCH_OFF = dataclasses.replace(DEFAULT_CONFIG, batch_verify=False)


class Fig4Realm:
    """Alice grants a delegate proxy to carol, who passes it on (§3.4).

    Every chain shares the root link and the two identity keys; each
    ``chain(i)`` is a fresh delegate link to ``dave<i>`` with its own
    Schnorr proxy key, so chains differ only in the final proxy key.
    """

    def __init__(self, seed=b"possession-tables"):
        self.rng = Rng(seed=seed)
        self.clock = SimulatedClock(START)
        alice = schnorr.generate_keypair(TEST_GROUP, rng=self.rng)
        carol = schnorr.generate_keypair(TEST_GROUP, rng=self.rng)
        self.identity_keys = {
            (TEST_GROUP.p, alice.y), (TEST_GROUP.p, carol.y)
        }
        self.carol_signer = SchnorrSigner(carol)
        self.crypto = PublicKeyCrypto(
            directory={
                ALICE: SchnorrSigner(alice).verifier(),
                CAROL: self.carol_signer.verifier(),
            }
        )
        self.to_carol = grant_public(
            ALICE, SchnorrSigner(alice), (Grantee(principals=(CAROL,)),),
            START, START + 3600, self.rng, group=TEST_GROUP,
        )
        self._chains = {}

    def chain(self, i):
        if i not in self._chains:
            self._chains[i] = delegate_cascade(
                self.to_carol, CAROL, self.carol_signer,
                PrincipalId(f"dave{i}"), (), START, START + 3600,
                rng=self.rng, group=TEST_GROUP,
            )
        return self._chains[i]

    def proxy_key(self, i):
        """The (p, y) table key of chain ``i``'s final proxy key."""
        return (TEST_GROUP.p, self.chain(i).proxy_key.y)

    def verifier(self):
        return ProxyVerifier(server=SERVER, crypto=self.crypto, clock=self.clock)

    def presentation(self, i, proof_from=None, flip_proof_byte=False):
        """A fresh bearer presentation of chain ``i``.

        ``proof_from`` takes the possession proof from chain
        ``proof_from`` instead (a swapped proof); ``flip_proof_byte``
        damages the proof's signature (a forged proof).
        """
        presented = present(
            self.chain(i), SERVER, self.clock.now(), "read",
            claimant=PrincipalId(f"dave{i}"),
        )
        if proof_from is not None:
            donor = present(
                self.chain(proof_from), SERVER, self.clock.now(), "read"
            )
            presented = dataclasses.replace(presented, proof=donor.proof)
        if flip_proof_byte:
            signature = bytearray(presented.proof.signature)
            signature[7] ^= 0x01
            presented = dataclasses.replace(
                presented,
                proof=dataclasses.replace(
                    presented.proof, signature=bytes(signature)
                ),
            )
        return presented


def verdict(verifier, presented):
    context = RequestContext(
        server=SERVER, operation="read", claimant=presented.claimant
    )
    try:
        verifier.verify(presented, context)
        return ("ok",)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


@pytest.fixture(autouse=True)
def empty_key_tables():
    schnorr.clear_key_tables()
    yield
    schnorr.clear_key_tables()


@pytest.fixture
def builds(monkeypatch):
    """Count every table build, keyed by (p, base)."""
    counts = collections.Counter()

    class CountingTable(schnorr.FixedBaseTable):
        __slots__ = ()

        def __init__(self, base, p, exponent_bits):
            counts[(p, base)] += 1
            super().__init__(base, p, exponent_bits)

    monkeypatch.setattr(schnorr, "FixedBaseTable", CountingTable)
    return counts


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------

def test_re_presented_proxy_key_gets_a_table():
    realm = Fig4Realm()
    with override(DEFAULT_CONFIG):
        verifier = realm.verifier()
        assert verdict(verifier, realm.presentation(0)) == ("ok",)
        # First sight: the chain verified, but nothing shows it recurs.
        assert realm.proxy_key(0) not in schnorr._KEY_TABLES
        assert verdict(verifier, realm.presentation(0)) == ("ok",)
        assert realm.proxy_key(0) in schnorr._KEY_TABLES


def test_delegate_use_without_proof_admits_nothing():
    """A presentation with no possession proof never uses the proxy key,
    so a re-presented delegate-use chain earns it no table."""
    realm = Fig4Realm()
    with override(DEFAULT_CONFIG):
        verifier = realm.verifier()
        for _ in range(2):
            presented = present(
                realm.chain(0), SERVER, realm.clock.now(), "read",
                claimant=PrincipalId("dave0"), prove_possession=False,
            )
            assert verdict(verifier, presented) == ("ok",)
    assert realm.proxy_key(0) not in schnorr._KEY_TABLES


@pytest.mark.parametrize(
    "config", [DEFAULT_CONFIG, BATCH_OFF], ids=["batched", "sequential"]
)
def test_round_robin_builds_each_table_once(builds, config):
    """The thrash guard: more distinct chains than table slots, each
    presented several times, never builds a key's table twice, never
    overfills the store, and never evicts an identity key."""
    realm = Fig4Realm()
    chains = schnorr._MAX_KEY_TABLES + 72
    with override(config):
        verifier = realm.verifier()
        for _ in range(3):
            for i in range(chains):
                assert verdict(verifier, realm.presentation(i)) == ("ok",)
                assert (
                    schnorr.registered_key_count() <= schnorr._MAX_KEY_TABLES
                )
    key_builds = {
        key: n for key, n in builds.items() if key[1] != TEST_GROUP.g
    }
    assert key_builds and max(key_builds.values()) == 1
    tabled = set(schnorr._KEY_TABLES)
    admitted = {realm.proxy_key(i) for i in range(chains)} & tabled
    if config.batch_verify:
        # The batched walk registers both identity keys on first sight;
        # possession keys then fill exactly the slots left over.
        assert realm.identity_keys <= tabled
        assert len(admitted) == schnorr._MAX_KEY_TABLES - 2
    else:
        assert len(admitted) == schnorr._MAX_KEY_TABLES
    assert len(key_builds) == len(tabled)


def test_admission_never_evicts_an_identity_key(rng):
    identities = [
        schnorr.generate_keypair(TEST_GROUP, rng=rng).public
        for _ in range(schnorr._MAX_KEY_TABLES)
    ]
    for key in identities:
        assert schnorr.register_verification_key(key)
    proxy_key = schnorr.generate_keypair(TEST_GROUP, rng=rng).public
    assert not schnorr.admit_possession_key(proxy_key)
    assert schnorr.registered_key_count() == schnorr._MAX_KEY_TABLES
    assert all(
        (key.group_p, key.y) in schnorr._KEY_TABLES for key in identities
    )
    # Identity keys keep their LRU behaviour: a new one evicts the oldest.
    newcomer = schnorr.generate_keypair(TEST_GROUP, rng=rng).public
    assert schnorr.register_verification_key(newcomer)
    assert (identities[0].group_p, identities[0].y) not in schnorr._KEY_TABLES
    assert schnorr.registered_key_count() == schnorr._MAX_KEY_TABLES


def test_concurrent_admission_builds_each_table_once(
    monkeypatch, rng, builds
):
    """Admission checks for a key and a free slot, then builds and
    inserts; under threads that must stay atomic, or two threads build
    the same table or fill the same slot."""
    slots, threads_n = 4, 8
    monkeypatch.setattr(schnorr, "_MAX_KEY_TABLES", slots)
    keys = [
        schnorr.generate_keypair(TEST_GROUP, rng=rng).public
        for _ in range(3 * slots)
    ]
    params = schnorr._params(TEST_GROUP.p)
    errors, sizes = [], []
    barrier = threading.Barrier(threads_n)

    def worker():
        try:
            barrier.wait(timeout=30)
            for key in keys:
                schnorr.admit_possession_key(key)
                assert schnorr._key_pow(params, key, 0xBEEF) == pow(
                    key.y, 0xBEEF, params.p
                )
                sizes.append(schnorr.registered_key_count())
        except Exception as exc:  # re-raised below, in the test thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    assert len(sizes) == threads_n * len(keys)
    assert max(sizes) <= slots
    key_builds = [n for (_, base), n in builds.items() if base != params.g]
    assert sorted(key_builds) == [1] * slots
    assert set(schnorr._KEY_TABLES) == {(k.group_p, k.y) for k in keys[:slots]}


def test_batched_and_sequential_walks_admit_the_same_keys():
    def admitted(config):
        schnorr.clear_key_tables()
        realm = Fig4Realm()
        with override(config):
            verifier = realm.verifier()
            for i in (0, 1, 2, 0, 1, 0):
                assert verdict(verifier, realm.presentation(i)) == ("ok",)
        return set(schnorr._KEY_TABLES) - realm.identity_keys

    batched, sequential = admitted(DEFAULT_CONFIG), admitted(BATCH_OFF)
    assert batched == sequential
    assert len(batched) == 2  # chains 0 and 1 were re-presented


# ---------------------------------------------------------------------------
# Verdicts on a tabled key
# ---------------------------------------------------------------------------

def _verdicts_on_tabled_chain(config):
    """Valid, forged, and swapped proofs against a re-presented chain."""
    realm = Fig4Realm()
    with override(config):
        verifier = realm.verifier()
        results = [
            verdict(verifier, realm.presentation(0)),
            verdict(verifier, realm.presentation(1)),
            verdict(verifier, realm.presentation(0)),
        ]
        results += [
            verdict(verifier, realm.presentation(0, flip_proof_byte=True)),
            verdict(verifier, realm.presentation(0, proof_from=1)),
            verdict(verifier, realm.presentation(0)),
        ]
    return realm, results


@pytest.mark.parametrize(
    "config", [DEFAULT_CONFIG, BATCH_OFF], ids=["batched", "sequential"]
)
def test_forged_and_swapped_proofs_fail_as_with_tables_off(config):
    realm, tabled = _verdicts_on_tabled_chain(config)
    assert realm.proxy_key(0) in schnorr._KEY_TABLES
    schnorr.clear_key_tables()
    previous = schnorr.set_precompute(False)
    try:
        _, untabled = _verdicts_on_tabled_chain(config)
    finally:
        schnorr.set_precompute(previous)
    assert tabled == untabled
    invalid = (
        ProxyVerificationError.__name__,
        "possession proof invalid: schnorr signature verification failed",
    )
    assert tabled == [("ok",)] * 3 + [invalid, invalid, ("ok",)]


def test_damaged_possession_key_table_never_flips_a_verdict():
    """A valid proof still verifies when the key's table is corrupted:
    the native recheck runs before any rejection."""
    realm = Fig4Realm()
    with override(DEFAULT_CONFIG):
        verifier = realm.verifier()
        for _ in range(2):
            assert verdict(verifier, realm.presentation(0)) == ("ok",)
        table = schnorr._KEY_TABLES[realm.proxy_key(0)]
        p = TEST_GROUP.p
        table._rows[0] = [1] + [(entry * 3) % p for entry in table._rows[0][1:]]
        assert verdict(verifier, realm.presentation(0)) == ("ok",)
        assert verdict(
            verifier, realm.presentation(0, flip_proof_byte=True)
        )[0] == ProxyVerificationError.__name__
