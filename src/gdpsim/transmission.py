"""Witness-validated data transactions.

A transaction carries only a payload digest; a reputation-weighted, operator-
diverse witness panel attests to it through a two-phase commit-reveal so no
witness can copy another's verdict. Aggregation resolves each transaction to
Witnessed / Rejected / Disputed, disputed ones re-run with a fresh disjoint
panel, and witness accuracy is settled against the consensus outcome.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import incentives
from .errors import (
    AlreadyCommitted,
    CommitMismatch,
    InsufficientWitnesses,
    NotAuthorized,
    NotOnPanel,
    RevealTooEarly,
)
from .events import SharedDetails
from .onboarding import DeviceStatus
from .primitives import Digest, KeyPair, Signature, digest, sign


class TxnStatus(Enum):
    PENDING = "Pending"
    WITNESSED = "Witnessed"
    COMMITTED = "Committed"
    REJECTED = "Rejected"
    DISPUTED = "Disputed"


class Verdict(Enum):
    VALID = "Valid"
    INVALID = "Invalid"


# The detail of each reveal and witness evaluation, one dict per value that
# every such event shares (the log never writes a detail after the append).
_REVEAL_DETAIL = {verdict: {"verdict": verdict.value} for verdict in Verdict}
_EVAL_DETAIL = {correct: {"correct": correct} for correct in (False, True)}


# Each panel outcome's ``txn_status`` detail. Valid and invalid sum to the
# panel size, so a panel of k seats adds at most 3 (k + 1) entries.
_STATUS_DETAIL = SharedDetails("status", "valid", "invalid")


@dataclass(slots=True, eq=False)
class Attestation:
    """A witness's commit on a txn, signed over ``txn_id + commit``.

    ``witness_commit`` signs by construction: it keeps a reference to the
    witness's frozen ``KeyPair`` in ``keys`` and stores no signature, and
    ``signature`` then reads as ``sign(keys, txn_id + commit)``,
    built afresh on each read. Ed25519 signing is deterministic (RFC 8032,
    5.1.6), so that is the signature the commit would have stored, and
    ``verify`` accepts it as signed by construction, with no Ed25519 work.
    Assigning ``signature`` stores an explicit one, which audits check as
    before. The claim stays exact because nothing writes ``txn_id`` or
    ``commit`` after ``witness_commit`` builds the attestation. Attestations
    compare by identity (``eq=False``): a value compare would sign both
    sides. A ``replace``, ``copy`` or ``pickle`` of one would read
    ``signature`` and hold it explicitly, so no module copies one.
    """

    witness: bytes
    txn_id: Digest
    commit: Digest
    signature: Optional[Signature] = None
    keys: Optional[KeyPair] = field(default=None, repr=False)
    revealed_verdict: Optional[Verdict] = None
    salt: Optional[bytes] = None
    equivocated: bool = False


# The slot the dataclass made for ``signature``: it holds an explicit
# signature, or None for one signed by construction. The field itself reads
# and writes through the property below.
_EXPLICIT = Attestation.signature


def _read_signature(att: Attestation) -> Signature:
    """The explicit signature, or the one ``keys`` make over ``txn_id +
    commit``."""
    explicit = _EXPLICIT.__get__(att)
    if explicit is None:
        return sign(att.keys, att.txn_id + att.commit)
    return explicit


Attestation.signature = property(_read_signature, _EXPLICIT.__set__)


@dataclass(slots=True)
class DataTransaction:
    id: Digest
    sender: bytes
    receiver: bytes
    payload_digest: Digest
    nonce: int
    created_tick: int
    status: TxnStatus = TxnStatus.PENDING
    attestations: dict = field(default_factory=dict)   # witness -> Attestation
    panel: list = field(default_factory=list)
    panel_history: list = field(default_factory=list)  # all past+current members
    reveal_deadline_tick: int = 0
    escalations: int = 0
    objected: bool = False


def txn_id(sender: bytes, receiver: bytes, payload_digest: Digest, nonce: int,
           tick: int) -> Digest:
    return digest(b"txn" + sender + receiver + payload_digest
                  + nonce.to_bytes(8, "big") + tick.to_bytes(8, "big"))


def make_commit(verdict: Verdict, salt: bytes) -> Digest:
    """The digest binding ``verdict`` under ``salt``. The verdict's byte is
    picked by identity: hashing an ``Enum`` member runs Python code."""
    if verdict is Verdict.VALID:
        return digest(b"\x01" + salt)
    if verdict is Verdict.INVALID:
        return digest(b"\x00" + salt)
    raise TypeError(f"not a Verdict: {verdict!r}")


def submit_transaction(world, sender: bytes, receiver: bytes,
                       payload_digest: Digest) -> DataTransaction:
    """Create a Pending transaction with the sender's next monotone nonce."""
    profile = world.devices.get(sender)
    if profile is None or profile.status is not DeviceStatus.ACTIVE:
        raise NotAuthorized(f"sender {sender.hex()} has no active profile")
    nonce = world.next_nonce.get(sender, 0)
    world.next_nonce[sender] = nonce + 1
    tid = txn_id(sender, receiver, payload_digest, nonce, world.tick)
    txn = DataTransaction(id=tid, sender=sender, receiver=receiver,
                          payload_digest=payload_digest, nonce=nonce,
                          created_tick=world.tick)
    world.transactions[tid] = txn
    return txn


def _seats_without(world, drop: set, diversity: int) -> int:
    """Seats the active devices offer under the diversity cap once the
    active devices in ``drop`` leave them."""
    removed = Counter(world.devices[pub].operator_group for pub in drop)
    seats = world.capacity(diversity)
    for group, lost in removed.items():
        n = world.active_per_group[group]
        seats -= min(n, diversity) - min(n - lost, diversity)
    return seats


def select_witnesses(world, txn: DataTransaction, rng,
                     exclude=frozenset()) -> list:
    """Reputation-weighted panel with an operator-group diversity cap.

    Sender and receiver are never eligible; at most ``diversity`` witnesses
    may share an operator group. The world's seat count, less the
    ineligible devices, refuses an unfillable panel before any score is
    read (``scores_read`` False); less the zero-score devices too, it
    refuses one after reading them. Each seat is then one descent of the
    world's witness-weight tree (``WitnessWeights.draw``), with the
    ineligible devices, each pick but the last and the rest of any group at
    its cap taken out of it for the panel.
    """
    cfg = world.cfg.panel
    k, diversity = cfg.k, cfg.diversity
    devices = world.devices

    def active(pubs):
        return {p for p in pubs if devices[p].status is DeviceStatus.ACTIVE}

    drop = active((txn.sender, txn.receiver, *exclude))
    seats = _seats_without(world, drop, diversity)
    if seats < k:
        raise InsufficientWitnesses(
            f"capacity {seats} under diversity cap, need k={k}",
            scores_read=False)
    weights = world.witness_weights()
    unweighted = active(weights.unscored) - drop
    if unweighted:
        seats = _seats_without(world, drop | unweighted, diversity)
        if seats < k:
            raise InsufficientWitnesses(
                f"capacity {seats} under diversity cap, need k={k}")

    group_use: dict = {}

    def capped(pub):
        """``pub``'s group once its picks reach the cap; its members that
        are not active, or are out of the tree already, weigh 0."""
        group = devices[pub].operator_group
        used = group_use[group] = group_use.get(group, 0) + 1
        if used >= diversity and world.active_per_group[group] > used:
            return world.group_members[group]
        return ()

    panel = weights.draw(rng, drop, k, capped)
    if len(panel) < k:
        raise InsufficientWitnesses("pool exhausted under diversity cap")
    return panel


def open_panel(world, txn: DataTransaction, rng, exclude=frozenset()) -> list:
    """Select and record the panel; starts the commit phase clock."""
    panel = select_witnesses(world, txn, rng, exclude)
    txn.panel = panel
    txn.panel_history.extend(panel)
    txn.attestations = {}
    txn.reveal_deadline_tick = world.tick + world.cfg.panel.reveal_deadline
    hexes = world.hexes
    world.log.append(world.tick, "panel_selected", subject=hexes[txn.id],
                     witnesses=[hexes[p] for p in panel])
    return panel


def witness_commit(world, witness: bytes, txn: DataTransaction,
                   verdict: Verdict, salt: bytes) -> Attestation:
    """Commit phase: publish a binding digest of the verdict, verdict hidden.

    The caller (the witness actor) keeps verdict and salt for the reveal.
    """
    if witness not in txn.panel:
        raise NotOnPanel(witness.hex())
    if witness in txn.attestations:
        raise AlreadyCommitted(witness.hex())
    att = Attestation(witness=witness, txn_id=txn.id,
                      commit=make_commit(verdict, salt),
                      keys=world.actors[witness].keypair)
    txn.attestations[witness] = att
    world.log.append(world.tick, "attestation_commit",
                     actor=world.hexes[witness], subject=world.hexes[txn.id])
    return att


def witness_reveal(world, witness: bytes, txn: DataTransaction,
                   verdict: Verdict, salt: bytes) -> Attestation:
    """Reveal phase: only after all commits arrived or the deadline passed."""
    att = txn.attestations.get(witness)
    if att is None:
        raise NotOnPanel(witness.hex())
    all_committed = len(txn.attestations) == len(txn.panel)
    if not all_committed and world.tick < txn.reveal_deadline_tick:
        raise RevealTooEarly(
            f"{len(txn.attestations)}/{len(txn.panel)} commits, "
            f"deadline {txn.reveal_deadline_tick}")
    hexes = world.hexes
    if make_commit(verdict, salt) != att.commit:
        att.equivocated = True
        world.log.append(world.tick, "commit_mismatch", actor=hexes[witness],
                         subject=hexes[txn.id])
        incentives.apply_penalty(world, witness, incentives.Severity.MAJOR,
                                 cause=f"equivocation:{hexes[txn.id][:16]}")
        raise CommitMismatch(witness.hex())
    att.revealed_verdict = verdict
    att.salt = salt
    world.log.append_row(world.tick, "attestation_reveal", hexes[witness],
                         hexes[txn.id], _REVEAL_DETAIL[verdict])
    return att


def aggregate_attestations(world, txn: DataTransaction) -> TxnStatus:
    """Resolve the commit-reveal round once the reveal deadline has passed.

    Non-revealing witnesses count as Invalid and take a lazy-witness penalty.
    Valid reveals >= quorum -> Witnessed; Invalid >= quorum -> Rejected;
    anything else is a conflict -> Disputed.
    """
    cfg = world.cfg.panel
    quorum = cfg.effective_quorum()
    hexes = world.hexes
    subject = hexes[txn.id]
    lazy = None  # the lazy-witness cause, built for the first non-revealer
    valid = 0
    invalid = 0
    for witness in txn.panel:
        att = txn.attestations.get(witness)
        if att is None or (att.revealed_verdict is None and not att.equivocated):
            invalid += 1
            world.log.append(world.tick, "reveal_missing", actor=hexes[witness],
                             subject=subject)
            lazy = lazy or f"lazy_witness:{subject[:16]}"
            incentives.apply_penalty(world, witness, incentives.Severity.MINOR,
                                     cause=lazy)
        elif att.equivocated:
            invalid += 1
        elif att.revealed_verdict is Verdict.VALID:
            valid += 1
        else:
            invalid += 1

    if valid >= quorum:
        txn.status = TxnStatus.WITNESSED
    elif invalid >= quorum:
        txn.status = TxnStatus.REJECTED
    else:
        txn.status = TxnStatus.DISPUTED
    world.log.append_row(world.tick, "txn_status", "", subject,
                         _STATUS_DETAIL.of(txn.status.value, valid, invalid))
    return txn.status


def _txn_to_arbitration(world, txn: DataTransaction) -> None:
    """Open a dispute against the sender; a sender that can no longer be a
    dispute party (banned, say) leaves the txn Disputed with the reason
    logged."""
    from .arbitration import can_be_party, open_dispute
    subject = world.hexes[txn.id]
    accused = world.hexes[txn.sender]
    if not can_be_party(world, txn.sender):
        world.log.append(world.tick, "dispute_skipped", subject=subject,
                         accused=accused,
                         reason="sender is neither active nor quarantined")
        return
    _, _, _, subjects, _ = world.log.columns()
    refs = [ref for ref in world.log.refs_of(subject)
            if subjects[ref] == subject]
    claim = {"category": "attestation_conflict",
             "accused": accused, "event_refs": refs[-8:]}
    dispute = open_dispute(world, [txn.sender], claim)
    world.log.append(world.tick, "dispute_opened_from_txn",
                     subject=subject, dispute=dispute.id)


def reescalate_disputed(world, txn: DataTransaction, rng) -> bool:
    """Re-run the round with a fresh panel disjoint from every earlier one;
    after the escalation cap (or when no disjoint panel exists), hand the
    conflict to arbitration. Whether a fresh panel was seated."""
    if txn.status is not TxnStatus.DISPUTED:
        return False
    if txn.escalations >= world.cfg.panel.max_escalations:
        _txn_to_arbitration(world, txn)
        return False
    txn.escalations += 1
    txn.status = TxnStatus.PENDING
    txn.objected = False
    try:
        open_panel(world, txn, rng, exclude=frozenset(txn.panel_history))
    except InsufficientWitnesses:
        txn.status = TxnStatus.DISPUTED
        txn.escalations -= 1
        _txn_to_arbitration(world, txn)
        return False
    world.log.append(world.tick, "txn_escalated", subject=world.hexes[txn.id],
                     escalation=txn.escalations)
    return True


def evaluate_witnesses(world, txn: DataTransaction) -> None:
    """Settle witness accuracy against the terminal outcome.

    Truth is Valid for Committed transactions and Invalid for Rejected ones.
    Equivocators and non-revealers were already penalized when caught; here
    the revealed verdicts earn rewards or penalties. Every reward of the
    panel logs one shared detail.
    """
    truth = Verdict.VALID if txn.status is TxnStatus.COMMITTED else Verdict.INVALID
    hexes = world.hexes
    subject = hexes[txn.id]
    # the reward's detail and the penalty's cause, built for their first witness
    rewarded = penalized = None
    for witness in txn.panel:
        att = txn.attestations.get(witness)
        if att is None or att.equivocated or att.revealed_verdict is None:
            continue
        correct = att.revealed_verdict is truth
        world.log.append_row(world.tick, "witness_eval", hexes[witness],
                             subject, _EVAL_DETAIL[correct])
        if correct:
            profile = world.devices.get(witness)
            if profile is not None and profile.status is DeviceStatus.ACTIVE:
                rewarded = rewarded or incentives.perf_reward_detail(
                    world, f"attestation:{subject[:16]}")
                incentives.apply_performance_reward(world, witness,
                                                    detail=rewarded)
        else:
            penalized = penalized or f"wrong_verdict:{subject[:16]}"
            incentives.apply_penalty(world, witness, incentives.Severity.MINOR,
                                     cause=penalized)
