import dataclasses
import gc
import weakref

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from gdpsim import primitives
from gdpsim.actors import DeviceActor
from gdpsim.errors import InsufficientPopulation
from gdpsim.primitives import (
    KeyPair,
    SeededRng,
    Signature,
    digest,
    generate_keypair,
    sample_without_replacement,
    sign,
    signed_by_construction,
    verify,
)
from gdpsim.scenarios import get_scenario
from gdpsim.transmission import Attestation, Verdict
from gdpsim.world import build_world, run_world, step

from conftest import (count_ed25519_verifies, gauss, mini_cfg,
                      record_signature_reads)

# SHA-256 of the empty string, as published in FIPS 180-4 test vectors.
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_digest_deterministic():
    for payload in (b"", b"a", b"hello world", bytes(range(256))):
        assert digest(payload) == digest(payload)
        assert len(digest(payload)) == 32


def test_digest_empty_matches_standard():
    assert digest(b"").hex() == EMPTY_SHA256


def test_digest_no_collisions_on_corpus():
    corpus = {digest(b"msg-%d" % i) for i in range(100_000)}
    assert len(corpus) == 100_000


def test_sign_verify_round_trip():
    rng = SeededRng(1)
    kp = generate_keypair(rng)
    msg = b"attestation payload"
    sig = sign(kp, msg)
    assert sig.signer == kp.public_key
    assert verify(kp.public_key, msg, sig)


def test_sign_binds_message():
    kp = generate_keypair(SeededRng(2))
    sig = sign(kp, b"message one")
    assert not verify(kp.public_key, b"message two", sig)


def test_sign_binds_key():
    kp1 = generate_keypair(SeededRng(3))
    kp2 = generate_keypair(SeededRng(4))
    sig = sign(kp1, b"message")
    assert not verify(kp2.public_key, b"message", sig)


def _eager(secret: bytes, message: bytes) -> bytes:
    return Ed25519PrivateKey.from_private_bytes(secret).sign(message)


class _CountingKey:
    """Stands in for a parsed private key; records every real signing."""

    def __init__(self, key, signed: list):
        self._key, self._signed = key, signed

    def sign(self, message: bytes) -> bytes:
        self._signed.append(message)
        return self._key.sign(message)


def _count_signings(monkeypatch) -> list:
    """Wrap the parsed key of every ``KeyPair``, made before or after;
    returns the list of signed messages."""
    signed = []
    monkeypatch.setattr(KeyPair, "private", property(
        lambda keys: _CountingKey(vars(keys)["private"], signed),
        lambda keys, key: vars(keys).__setitem__("private", key)),
        raising=False)
    return signed


def test_lazy_and_eager_signatures_are_interchangeable(monkeypatch):
    kp = generate_keypair(SeededRng(5))
    msg = b"commit payload"
    signed = _count_signings(monkeypatch)
    lazy = sign(kp, msg)
    att = Attestation(witness=kp.public_key, txn_id=digest(b"txn"),
                      commit=digest(b"commit"), signature=lazy)
    moved = dataclasses.replace(att, revealed_verdict=Verdict.VALID)
    assert moved.signature is lazy and signed == []
    eager = Signature(sig=_eager(kp.secret_key, msg), signer=kp.public_key)
    assert lazy == eager and hash(lazy) == hash(eager)
    assert {lazy, eager} == {eager}
    assert signed == [msg]  # computed once, on the first read
    assert lazy != sign(kp, b"another payload")
    assert lazy != Signature(sig=eager.sig, signer=b"\x00" * 32)


def test_signature_keeps_the_key_it_was_signed_with(monkeypatch):
    actor = DeviceActor(SeededRng(8))
    before = actor.keypair
    signature = sign(before, b"commit")
    actor.keypair = generate_keypair(SeededRng(9))  # rotate the identity
    # and parse no key again: the signature signs with the keys it holds
    monkeypatch.setattr(primitives, "Ed25519PrivateKey", None)
    assert signature.signer == before.public_key
    assert signature.sig == _eager(before.secret_key, b"commit")
    assert verify(before.public_key, b"commit", signature)


def _module_state() -> int:
    """Entries held by ``gdpsim.primitives``' module-level containers."""
    return sum(len(value) for name, value in vars(primitives).items()
               if not name.startswith("__")
               and isinstance(value, (dict, list, set)))


def test_keys_leave_with_their_world():
    """A device's parsed key lives in its ``KeyPair``, so when a world is
    freed its keys go with it, and no module state grows from one world to
    the next."""
    before = _module_state()
    for seed in range(4):
        world = run_world(mini_cfg(seed=seed))
        keys = [weakref.ref(actor.keypair) for actor in world.actors.values()]
        assert len(keys) > 10
        del world
        gc.collect()
        assert [ref for ref in keys if ref() is not None] == []
        assert _module_state() == before


def _audit_cases():
    """name -> (public, message, signature, the bytes an eager signing of
    that signature would have, and whether it is signed by construction)."""
    kp, other = generate_keypair(SeededRng(11)), generate_keypair(SeededRng(12))
    msg = b"vote message"
    read = sign(kp, msg)
    read.sig
    reassigned = sign(other, msg)
    reassigned.signer = kp.public_key
    actor = DeviceActor(SeededRng(13))
    before = actor.keypair
    rotated = sign(before, msg)
    actor.keypair = generate_keypair(SeededRng(14))
    return {
        "lazy": (kp.public_key, msg, sign(kp, msg),
                 _eager(kp.secret_key, msg), True),
        "read_first": (kp.public_key, msg, read, _eager(kp.secret_key, msg),
                       False),
        "explicit": (kp.public_key, msg,
                     Signature(sig=_eager(kp.secret_key, msg),
                               signer=kp.public_key),
                     _eager(kp.secret_key, msg), False),
        "explicit_wrong": (kp.public_key, msg,
                           Signature(sig=_eager(other.secret_key, msg),
                                     signer=kp.public_key),
                           _eager(other.secret_key, msg), False),
        "other_key": (kp.public_key, msg, sign(other, msg),
                      _eager(other.secret_key, msg), False),
        "other_message": (kp.public_key, msg, sign(kp, b"other"),
                          _eager(kp.secret_key, b"other"), False),
        "signer_reassigned": (kp.public_key, msg, reassigned,
                              _eager(other.secret_key, msg), False),
        "rotated_old_key": (before.public_key, msg, rotated,
                            _eager(before.secret_key, msg), True),
        "rotated_new_key": (actor.keypair.public_key, msg,
                            sign(before, msg),
                            _eager(before.secret_key, msg), False),
    }


@pytest.mark.parametrize("case", sorted(_audit_cases()))
def test_audits_decide_as_ed25519_on_eager_bytes(case, monkeypatch):
    public, message, signature, eager, by_construction = _audit_cases()[case]
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(eager, message)
        accepted = signature.signer == public
    except InvalidSignature:
        accepted = False
    assert signed_by_construction(public, message, signature) == by_construction
    verified = count_ed25519_verifies(monkeypatch)
    read = record_signature_reads(monkeypatch)
    assert verify(public, message, signature) == accepted
    if by_construction:  # accepted without computing or checking any bytes
        assert accepted and verified == [] and read == {}
    elif signature.signer == public:
        assert verified == [message]


def test_unread_signatures_cost_no_ed25519_work(monkeypatch):
    cfg = get_scenario("forged_sync")  # every sync re-verifies vote signatures
    assert cfg.inspection.rate_txn > 0  # and deep inspections check attestations
    world = build_world(cfg)
    signed = _count_signings(monkeypatch)
    verified = count_ed25519_verifies(monkeypatch)
    read = record_signature_reads(monkeypatch)
    for _ in range(140):  # past the outage, so the lagging node syncs
        step(world)
    assert any(ev.kind == "sync" and ev.detail["blocks"] for ev in world.log)
    assert any(ev.kind == "inspection"
               and ev.detail["target_kind"] == "Transaction"
               for ev in world.log)
    assert read == {} and signed == [] and verified == []


def test_public_keys_unique():
    keys = {generate_keypair(SeededRng(seed)).public_key for seed in range(50)}
    assert len(keys) == 50


# Published SplitMix64 reference outputs: the seed=1234567 sequence matches
# the values distributed with the original algorithm's test harness.
RNG_VECTORS = {
    0: [16294208416658607535, 7960286522194355700, 487617019471545679],
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423],
    42: [13679457532755275413, 2949826092126892291, 5139283748462763858],
}


def test_rng_reference_vectors():
    for seed, expected in RNG_VECTORS.items():
        rng = SeededRng(seed)
        assert [rng.next_u64() for _ in range(3)] == expected


def test_rng_same_seed_same_sequence():
    a, b = SeededRng(987), SeededRng(987)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_rng_derive_is_independent_of_parent_position():
    a = SeededRng(5)
    b = SeededRng(5)
    a.next_u64()  # advance parent; derived streams must not care
    assert a.derive("x").next_u64() == b.derive("x").next_u64()
    assert a.derive("x").next_u64() != a.derive("y").next_u64()


def test_rng_below_bounds():
    rng = SeededRng(11)
    values = [rng.below(7) for _ in range(2000)]
    assert set(values) == set(range(7))


def test_rng_random_unit_interval():
    rng = SeededRng(12)
    values = [rng.random() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(sum(values) / len(values) - 0.5) < 0.02


def test_rng_gauss_moments():
    rng = SeededRng(13)
    values = [gauss(rng) for _ in range(50_000)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert abs(mean) < 0.02
    assert abs(var - 1.0) < 0.03


def test_sample_exhaustive_draw():
    rng = SeededRng(20)
    population = list("abcdefgh")
    picked = sample_without_replacement(rng, population, [1.0] * 8, 8)
    assert sorted(picked) == sorted(population)


def test_sample_uniform_frequencies():
    # equal weights, k=1: each of n items should appear 1/n +- 0.01
    rng = SeededRng(21)
    population = list(range(10))
    counts = dict.fromkeys(population, 0)
    draws = 100_000
    for _ in range(draws):
        counts[sample_without_replacement(rng, population, [1.0] * 10, 1)[0]] += 1
    for item in population:
        assert abs(counts[item] / draws - 0.1) < 0.01


def test_sample_zero_weight_never_selected():
    rng = SeededRng(22)
    population = ["alive", "dead", "other"]
    weights = [1.0, 0.0, 1.0]
    for _ in range(10_000):
        assert "dead" not in sample_without_replacement(rng, population, weights, 2)


def test_sample_weight_ratio():
    # weights 0.9 vs 0.3 at k=1: selection ratio 3:1 within 5%
    rng = SeededRng(23)
    hits = 0
    draws = 100_000
    for _ in range(draws):
        if sample_without_replacement(rng, ["a", "b"], [0.9, 0.3], 1)[0] == "a":
            hits += 1
    ratio = hits / (draws - hits)
    assert abs(ratio - 3.0) < 0.15


def test_sample_insufficient_population():
    rng = SeededRng(24)
    with pytest.raises(InsufficientPopulation):
        sample_without_replacement(rng, ["a", "b"], [1.0, 0.0], 2)
    with pytest.raises(InsufficientPopulation):
        sample_without_replacement(rng, ["a"], [1.0], 2)
