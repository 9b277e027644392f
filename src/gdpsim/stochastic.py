"""Random-inspection engine woven through the other protocol flows.

Inspection draws come from a dedicated substream keyed by (round, target), so
they are deterministic per seed, independent of protocol state, and
unpredictable to in-world actors. Every failed outcome routes to a penalty
and an arbitration dispute or quarantine; nothing fails silently.
"""

from __future__ import annotations

from enum import Enum

from . import incentives
from .consensus import verify_batch
from .errors import ChainIntegrityViolation, InsufficientNodes
from .primitives import Digest, digest, verify
from .transmission import TxnStatus, make_commit


class TargetKind(Enum):
    TRANSACTION = "Transaction"
    WITNESS = "Witness"
    PROPOSER = "Proposer"
    SYNC_BATCH = "SyncBatch"
    DEVICE = "Device"


def should_inspect(rng, rate: float, *key_parts) -> bool:
    """Bernoulli(rate) from the inspection substream keyed by the target."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    return rng.derive(*key_parts).random() < rate


def leading_zero_bits(d: bytes) -> int:
    bits = 0
    for byte in d:
        if byte == 0:
            bits += 8
            continue
        for shift in range(7, -1, -1):
            if byte >> shift:
                return bits + (7 - shift)
        return bits
    return bits


def verify_puzzle(base: Digest, nonce: int, difficulty: int) -> bool:
    return leading_zero_bits(digest(base + nonce.to_bytes(8, "big"))) >= difficulty


def solve_puzzle(base: Digest, difficulty: int, max_attempts: int):
    """Scan nonces until the digest has enough leading zero bits.

    Expected attempts are 2**difficulty; returns (nonce, attempts) or
    (None, attempts) when the budget runs out.
    """
    for nonce in range(max_attempts):
        if verify_puzzle(base, nonce, difficulty):
            return nonce, nonce + 1
    return None, max_attempts


def _record(world, target_kind: TargetKind, target_id: str, passed: bool,
            evidence: list) -> None:
    """Log an inspection's outcome; the log is its one record."""
    world.log.append(world.tick, "inspection", subject=target_id,
                     target_kind=target_kind.value, passed=passed,
                     evidence=evidence)


def deep_inspect_transaction(world, txn) -> bool:
    """Deep-dive packet analysis: re-derive the payload digest from the
    simulator's ground truth and replay every attestation's commit binding
    and signature. Any mismatch is conclusive: dispute plus critical penalty.
    Whether the transaction passed."""
    assert txn.status in (TxnStatus.WITNESSED, TxnStatus.COMMITTED,
                          TxnStatus.REJECTED, TxnStatus.DISPUTED)
    hexes = world.hexes
    subject = hexes[txn.id]
    evidence = []
    truth = world.ground_truth.get(txn.id)
    if truth is not None and truth.true_digest != txn.payload_digest:
        evidence.append(f"payload digest mismatch on {subject[:16]}")
    for witness, att in txn.attestations.items():
        if att.revealed_verdict is not None and not att.equivocated:
            if make_commit(att.revealed_verdict, att.salt) != att.commit:
                evidence.append(
                    f"commit binding broken by {hexes[witness][:16]}")
        if not verify(witness, txn.id + att.commit, att.signature):
            evidence.append(
                f"attestation signature invalid for {hexes[witness][:16]}")

    passed = not evidence
    _record(world, TargetKind.TRANSACTION, subject, passed, evidence)
    if not passed:
        sender = txn.sender
        from .arbitration import can_be_party, open_dispute
        # open the dispute while the sender is still an eligible party
        if can_be_party(world, sender):
            open_dispute(world, [sender],
                         {"category": "tampering", "accused": hexes[sender],
                          "event_refs": [len(world.log) - 1]})
        incentives.apply_penalty(world, sender, incentives.Severity.CRITICAL,
                                 cause=f"deep_inspect:{subject[:16]}")
    return passed


def challenge_proposer(world, proposer: bytes, proposal_dig: Digest,
                       rng) -> bool:
    """Anti-Sybil puzzle: the proposer must find a nonce giving the proposal
    digest enough leading zero bits; failure skips the round and costs it.
    Whether the proposer passed."""
    policy = world.cfg.inspection
    answer = world.actors[proposer].solve_puzzle(proposal_dig,
                                                 policy.puzzle_difficulty,
                                                 policy.puzzle_max_attempts)
    passed = (answer is not None
              and verify_puzzle(proposal_dig, answer, policy.puzzle_difficulty))
    _record(world, TargetKind.PROPOSER, world.hexes[proposer], passed,
            [world.hexes[proposal_dig]])
    if not passed:
        incentives.apply_penalty(world, proposer, incentives.Severity.MINOR,
                                 cause="proposer_puzzle")
    return passed


def pick_random_validators(rng, eligible: list, m: int) -> list:
    """Uniform validator subset of ``eligible``, the round's active devices
    less its proposer."""
    if m > len(eligible):
        raise InsufficientNodes(f"need {m}, have {len(eligible)}")
    return rng.sample(eligible, m)


def random_commit_delay(rng, max_delay: int) -> int:
    """Uniform delay in [0, max_delay] ticks before a block lands."""
    if max_delay <= 0:
        return 0
    return rng.below(max_delay + 1)


def verify_sync_integrity(world, source: bytes, target: bytes,
                          batch: list, start_head: Digest,
                          start_height: int) -> bool:
    """Stochastic deep verification of a sync transfer; a forged batch costs
    the propagating node its stake and membership. Whether the batch
    passed."""
    try:
        verify_batch(world, start_head, start_height, batch)
        evidence = []
    except ChainIntegrityViolation as exc:
        evidence = [str(exc)]
    passed = not evidence
    _record(world, TargetKind.SYNC_BATCH,
            f"{world.hexes[source][:16]}->{world.hexes[target][:16]}", passed,
            evidence)
    if not passed:
        incentives.apply_penalty(world, source, incentives.Severity.CRITICAL,
                                 cause="forged_sync")
    return passed


def inspect_device(world, device: bytes) -> bool:
    """Onboarding integration: immediate forced re-validation. Whether the
    device passed."""
    from .onboarding import revalidate_device

    passed = revalidate_device(world, world.devices[device], world.tick,
                               force=True)
    _record(world, TargetKind.DEVICE, world.hexes[device], passed, [])
    return passed
