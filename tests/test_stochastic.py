import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from hypothesis import example, given, settings, strategies as st

from gdpsim import stochastic, transmission
from gdpsim.errors import InsufficientNodes
from gdpsim.onboarding import DeviceStatus
from gdpsim.primitives import (
    SeededRng,
    Signature,
    digest,
    generate_keypair,
    sign,
)
from gdpsim.stochastic import (
    TargetKind,
    challenge_proposer,
    deep_inspect_transaction,
    inspect_device,
    leading_zero_bits,
    pick_random_validators,
    random_commit_delay,
    should_inspect,
    solve_puzzle,
    verify_puzzle,
    verify_sync_integrity,
)
from gdpsim.transmission import Verdict

from conftest import mini_world


def test_should_inspect_extremes():
    rng = SeededRng(1)
    assert not any(should_inspect(rng, 0.0, i) for i in range(1000))
    assert all(should_inspect(rng, 1.0, i) for i in range(1000))


def test_should_inspect_rate_converges():
    rng = SeededRng(2)
    hits = sum(1 for i in range(100_000) if should_inspect(rng, 0.05, "t", i))
    assert abs(hits / 100_000 - 0.05) < 0.003


def test_should_inspect_deterministic_per_key():
    rng = SeededRng(3)
    draws1 = [should_inspect(rng, 0.5, "round", i) for i in range(100)]
    draws2 = [should_inspect(rng, 0.5, "round", i) for i in range(100)]
    assert draws1 == draws2  # keyed by target, not by call order


def test_leading_zero_bits():
    assert leading_zero_bits(b"\x00\x00\xff") == 16
    assert leading_zero_bits(b"\x80") == 0
    assert leading_zero_bits(b"\x01") == 7
    assert leading_zero_bits(b"\x00" * 32) == 256


def test_puzzle_difficulty_zero_any_nonce():
    assert verify_puzzle(digest(b"base"), 0, 0)
    nonce, attempts = solve_puzzle(digest(b"base"), 0, 10)
    assert nonce == 0 and attempts == 1


def test_puzzle_expected_attempts():
    # geometric expectation 2^8 = 256; Monte Carlo mean within 10%
    total_attempts = 0
    puzzles = 2000
    for i in range(puzzles):
        base = digest(b"puzzle-%d" % i)
        nonce, attempts = solve_puzzle(base, 8, 1 << 16)
        assert nonce is not None
        total_attempts += attempts
    mean = total_attempts / puzzles
    assert abs(mean - 256) / 256 < 0.10


def last_inspection(world):
    """The log's last ``inspection`` event, the one record of a check."""
    return next(ev for ev in reversed(list(world.log))
                if ev.kind == "inspection")


def test_challenge_proposer_honest_passes(world):
    proposer = world.active_devices()[0]
    assert challenge_proposer(world, proposer, digest(b"proposal"),
                              SeededRng(4)) is True
    ev = last_inspection(world)
    assert (ev.tick, ev.subject, ev.detail) == (
        world.tick, proposer.hex(),
        {"target_kind": "Proposer", "passed": True,
         "evidence": [digest(b"proposal").hex()]})


def test_challenge_proposer_nonresponder_penalized(world):
    proposer = world.active_devices()[0]
    world.actors[proposer].solve_puzzle = lambda base, d, m: None
    before = world.reputation_accounts[proposer].score
    assert challenge_proposer(world, proposer, digest(b"proposal"),
                              SeededRng(5)) is False
    assert last_inspection(world).detail["passed"] is False
    assert world.reputation_accounts[proposer].score < before


def _witnessed_txn(world, tamper=False, before_commits=None):
    from gdpsim.world import GroundTruth
    senders = world.sender_pool()
    payload = b"the real payload"
    true_digest = digest(payload)
    advertised = digest(payload + b"tampered") if tamper else true_digest
    txn = transmission.submit_transaction(world, senders[0], senders[1],
                                          advertised)
    world.ground_truth[txn.id] = GroundTruth(true_digest, tamper, len(payload))
    transmission.open_panel(world, txn, SeededRng(6))
    if before_commits is not None:
        before_commits(txn)
    salts = {}
    for witness in txn.panel:
        salts[witness] = world.actors[witness].make_salt()
        transmission.witness_commit(world, witness, txn, Verdict.VALID,
                                    salts[witness])
    for witness in txn.panel:
        transmission.witness_reveal(world, witness, txn, Verdict.VALID,
                                    salts[witness])
    world.tick = max(world.tick, txn.reveal_deadline_tick)
    transmission.aggregate_attestations(world, txn)
    return txn


def test_deep_inspect_honest_passes(world):
    txn = _witnessed_txn(world, tamper=False)
    assert deep_inspect_transaction(world, txn) is True
    ev = last_inspection(world)
    assert (ev.subject, ev.detail) == (
        txn.id.hex(),
        {"target_kind": "Transaction", "passed": True, "evidence": []})


def test_deep_inspect_tampered_fails_with_evidence(world):
    txn = _witnessed_txn(world, tamper=True)
    assert deep_inspect_transaction(world, txn) is False
    evidence = last_inspection(world).detail["evidence"]
    assert any("payload digest mismatch" in e for e in evidence)


def test_deep_inspect_catches_forged_attestation_signatures(world):
    txn = _witnessed_txn(world, tamper=False)
    first, second, third = list(txn.attestations.values())[:3]
    # another witness's unread signature, and the witness's own key over
    # another message: the first fails on the signer, the second on the bytes
    first.signature, second.signature = second.signature, first.signature
    secret = world.actors[third.witness].keypair.secret_key
    third.signature = sign(secret, digest(b"another txn") + third.commit)
    assert deep_inspect_transaction(world, txn) is False
    assert set(last_inspection(world).detail["evidence"]) == {
        f"attestation signature invalid for {att.witness.hex()[:16]}"
        for att in (first, second, third)}


# What becomes of one panel seat's attestation around its commit and before
# a deep inspection: kept as committed; given explicit bytes, right or made
# with another witness's key; given another seat's signature as committed, or
# its own signature read and stored back; signed over another message; kept
# while the witness's key rotates, or signed again with the rotated key;
# committed after the key rotated; or swapped for one the same keys made for
# another txn.
_SEAT_CASES = ("as_committed", "explicit", "explicit_wrong", "swapped",
               "read_back", "other_message", "rotated", "rotated_resigned",
               "rotated_before_commit", "foreign_txn")


def _ed25519_accepts(public: bytes, signature: Signature,
                     message: bytes) -> bool:
    """Whether ``signature`` is ``public``'s and its bytes, computed here if
    it is unread, verify over ``message`` with Ed25519 itself."""
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature.sig,
                                                          message)
    except InvalidSignature:
        return False
    return signature.signer == public


@given(st.lists(st.sampled_from(_SEAT_CASES), min_size=5, max_size=5),
       st.lists(st.integers(min_value=0, max_value=4), min_size=5,
                max_size=5))
@example(["as_committed"] * 5, [0] * 5)
@example(["swapped"] * 5, [1, 0, 3, 4, 2])
@example(["rotated", "rotated_resigned", "other_message", "explicit",
          "explicit_wrong"], [0] * 5)
@example(["rotated_before_commit", "foreign_txn", "read_back",
          "as_committed", "swapped"], [0] * 5)
@settings(max_examples=80, deadline=None)
def test_deep_inspection_decides_as_ed25519_on_eager_bytes(cases, others):
    """An attestation that ``witness_commit`` built holds no signature, and
    the one its ``signature`` reads is signed by construction. Whatever is done to the panel's attestations after the
    commit, the inspection flags exactly the seats whose signature, as
    ``att.signature`` reads it, fails Ed25519 on its eager bytes."""
    world = mini_world()

    def rotate_before_commits(txn):
        for i, (witness, case) in enumerate(zip(txn.panel, cases)):
            if case == "rotated_before_commit":
                world.actors[witness].keypair = generate_keypair(
                    SeededRng(2000 + i))

    txn = _witnessed_txn(world, before_commits=rotate_before_commits)
    atts = list(txn.attestations.values())
    assert len(atts) == 5
    assert all(transmission._EXPLICIT.__get__(att) is None for att in atts)
    committed = [att.signature for att in atts]
    for i, (att, case, other) in enumerate(zip(atts, cases, others)):
        actor = world.actors[att.witness]
        message = txn.id + att.commit
        if case == "explicit":
            att.signature = Signature(
                sig=Ed25519PrivateKey.from_private_bytes(
                    att.keys.secret_key).sign(message), signer=att.witness)
        elif case == "explicit_wrong":
            foreign = atts[(i + 1 + other % 4) % 5].keys.secret_key
            att.signature = Signature(
                sig=Ed25519PrivateKey.from_private_bytes(foreign).sign(message),
                signer=att.witness)
        elif case == "swapped":
            att.signature = committed[other]
        elif case == "read_back":
            att.signature = att.signature
            att.signature.sig
        elif case == "other_message":
            att.signature = sign(actor.keypair.secret_key,
                                 digest(b"another txn") + att.commit)
        elif case in ("rotated", "rotated_resigned"):
            actor.keypair = generate_keypair(SeededRng(1000 + i))
            if case == "rotated_resigned":
                att.signature = sign(actor.keypair.secret_key, message)
        elif case == "foreign_txn":
            atts[i] = txn.attestations[att.witness] = transmission.Attestation(
                witness=att.witness, txn_id=digest(b"another txn"),
                commit=att.commit, keys=att.keys,
                revealed_verdict=att.revealed_verdict, salt=att.salt)
    passed = deep_inspect_transaction(world, txn)
    flagged = {att.witness.hex()[:16] for att in atts
               if not _ed25519_accepts(att.witness, att.signature,
                                       txn.id + att.commit)}
    assert passed == (not flagged)
    assert set(last_inspection(world).detail["evidence"]) == {
        f"attestation signature invalid for {witness}" for witness in flagged}


def test_deep_inspect_failure_routes_downstream(world):
    txn = _witnessed_txn(world, tamper=True)
    deep_inspect_transaction(world, txn)
    sender_hex = txn.sender.hex()
    penalties = [e for e in world.log if e.kind == "incentive"
                 and e.subject == sender_hex
                 and e.detail["cause"].startswith("deep_inspect:")]
    disputes = [e for e in world.log if e.kind == "dispute_opened"
                and sender_hex in e.detail["parties"]]
    assert penalties and disputes
    assert world.devices[txn.sender].status is DeviceStatus.BANNED


def test_pick_random_validators_excludes_proposer(world):
    from gdpsim.consensus import current_proposer
    world.round_no = 3
    proposer = current_proposer(world)
    eligible = [n for n in world.active_devices() if n != proposer]
    for seed in range(500):
        subset = pick_random_validators(SeededRng(seed), eligible, 4)
        assert proposer not in subset
        assert len(set(subset)) == 4


def test_pick_random_validators_all_equals_full(world):
    from gdpsim.consensus import current_proposer
    eligible = [n for n in world.active_devices() if n != current_proposer(world)]
    subset = pick_random_validators(SeededRng(7), eligible, len(eligible))
    assert sorted(subset) == sorted(eligible)
    with pytest.raises(InsufficientNodes):
        pick_random_validators(SeededRng(8), eligible, len(eligible) + 1)


def test_pick_random_validators_inclusion_frequency(world):
    from gdpsim.consensus import current_proposer
    eligible = [n for n in world.active_devices() if n != current_proposer(world)]
    n, m = len(eligible), 3
    counts = dict.fromkeys(eligible, 0)
    rounds = 100_000
    rng = SeededRng(9)
    for _ in range(rounds):
        for node in pick_random_validators(rng, eligible, m):
            counts[node] += 1
    for node in eligible:
        assert abs(counts[node] / rounds - m / n) < 0.01


def test_random_commit_delay_bounds():
    rng = SeededRng(10)
    assert all(random_commit_delay(rng, 0) == 0 for _ in range(100))
    values = [random_commit_delay(rng, 5) for _ in range(100_000)]
    assert set(values) == set(range(6))
    for v in range(6):
        assert abs(values.count(v) / len(values) - 1 / 6) < 0.01


def test_sync_integrity_honest_batch_passes(world):
    from tests_helpers_consensus import grow_chain_with_verdict
    _witnessed_txn(world)
    world.mempool.append(list(world.transactions)[0])
    block = grow_chain_with_verdict(world)
    source = world.active_devices()[0]
    batch = world.actors[source].serve_sync(world, 0)
    genesis = world.canonical.blocks[0]
    assert verify_sync_integrity(world, source, world.active_devices()[1],
                                 batch, genesis.block_digest, 0) is True
    assert last_inspection(world).detail["evidence"] == []


def test_sync_integrity_forged_batch_penalized(world):
    from tests_helpers_consensus import grow_chain_with_verdict
    from gdpsim import consensus
    _witnessed_txn(world)
    world.mempool.append(list(world.transactions)[0])
    block = grow_chain_with_verdict(world)
    source = world.active_devices()[0]
    real = world.actors[source].serve_sync(world, 0)
    forged_ids = (digest(b"not the real txn"),)
    forged = consensus.LedgerBlock(
        height=real[0].height, parent=real[0].parent, txn_ids=forged_ids,
        proposer=source, votes=real[0].votes,
        block_digest=consensus.block_digest(real[0].height, real[0].parent,
                                            forged_ids, source),
        accept_weight=real[0].accept_weight,
        total_weight=real[0].total_weight,
        proposal_tick=real[0].proposal_tick)
    genesis = world.canonical.blocks[0]
    assert verify_sync_integrity(world, source, world.active_devices()[1],
                                 [forged], genesis.block_digest, 0) is False
    ev = last_inspection(world)
    assert ev.detail["target_kind"] == "SyncBatch"
    assert ev.detail["passed"] is False and len(ev.detail["evidence"]) == 1
    assert world.devices[source].status is DeviceStatus.BANNED


def test_device_inspection_forced_revalidation(world):
    device = world.active_devices()[0]
    assert inspect_device(world, device) is True
    ev = last_inspection(world)
    assert ev.subject == device.hex()
    assert ev.detail == {"target_kind": TargetKind.DEVICE.value,
                         "passed": True, "evidence": []}


def test_device_inspection_frequency():
    # onboarding integration: inspection draw frequency matches the rate
    rng = SeededRng(11)
    rate = 0.05
    hits = sum(1 for i in range(10_000)
               if should_inspect(rng, rate, "device", i))
    assert abs(hits / 10_000 - rate) < 0.01


def test_should_inspect_independent_of_draw_order():
    # a permutation of targets yields the same per-target decisions: draws
    # depend only on (stream seed, key), never on protocol state or order
    rng = SeededRng(12)
    targets = [f"txn-{i}" for i in range(500)]
    forward = {t: should_inspect(rng, 0.3, 7, t) for t in targets}
    shuffled = list(targets)
    SeededRng(99).shuffle(shuffled)
    backward = {t: should_inspect(rng, 0.3, 7, t) for t in shuffled}
    assert forward == backward
