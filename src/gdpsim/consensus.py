"""Witness-informed consensus over a hash-chained ledger.

Rounds use a deterministic round-robin proposer, stake-plus-reputation
weighted votes, and a strict-majority commit threshold. A node's chain is
``world.canonical.blocks[:world.height(node) + 1]``; synchronization
re-verifies transferred blocks end to end before raising a node's height,
so a forged batch can never land (it is rejected, and stochastic sync
inspection pins the penalty on the propagator).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import (
    ChainIntegrityViolation,
    EmptyMempool,
    NotAuthorized,
    NotProposer,
    UnknownParent,
)
from .events import SharedDetails
from .onboarding import DeviceStatus
from .primitives import (
    ZERO_DIGEST,
    Digest,
    Signature,
    digest,
    float_sum,
    sign,
    verify,
)
from .transmission import TxnStatus, Verdict as WitnessVerdict


# each commit latency's ``txn_committed`` detail, shared by its events
_COMMITTED_DETAIL = SharedDetails("latency")


@dataclass(frozen=True)
class Proposal:
    proposer: bytes
    txn_ids: tuple
    parent_block: Digest
    tick: int
    signature: Signature

    @cached_property
    def digest(self) -> Digest:
        """Hashed on first read; ``dataclasses.replace`` makes a new
        instance, which hashes its own fields again."""
        return proposal_digest(self.proposer, self.txn_ids, self.parent_block,
                               self.tick)


def proposal_digest(proposer: bytes, txn_ids: tuple, parent: Digest,
                    tick: int) -> Digest:
    return digest(b"proposal" + proposer + parent
                  + len(txn_ids).to_bytes(4, "big") + b"".join(txn_ids)
                  + tick.to_bytes(8, "big"))


@dataclass(frozen=True)
class Vote:
    validator: bytes
    proposal_digest: Digest
    accept: bool
    weight: float
    signature: Signature


def vote_message(proposal_dig: Digest, accept: bool, weight: float) -> bytes:
    return (b"vote" + proposal_dig + (b"\x01" if accept else b"\x00")
            + struct.pack(">d", weight))


@dataclass(frozen=True)
class LedgerBlock:
    height: int
    parent: Digest
    txn_ids: tuple
    proposer: bytes
    votes: tuple
    block_digest: Digest
    accept_weight: float
    total_weight: float
    proposal_tick: int = 0  # lets verifiers rebind votes to the content


def block_digest(height: int, parent: Digest, txn_ids: tuple,
                 proposer: bytes) -> Digest:
    return digest(b"block" + height.to_bytes(8, "big") + parent
                  + b"".join(txn_ids) + proposer)


def genesis_block() -> LedgerBlock:
    proposer = b"\x00" * 32
    return LedgerBlock(height=0, parent=ZERO_DIGEST, txn_ids=(),
                       proposer=proposer, votes=(),
                       block_digest=block_digest(0, ZERO_DIGEST, (), proposer),
                       accept_weight=0.0, total_weight=0.0)


class Ledger:
    """The canonical chain plus its tip's committed ids and nonce watermarks."""

    def __init__(self):
        self.blocks: list[LedgerBlock] = [genesis_block()]
        self.committed_ids: set = set()
        self.nonce_watermark: dict = {}   # sender -> highest committed nonce

    @property
    def height(self) -> int:
        return self.blocks[-1].height

    @property
    def head(self) -> Digest:
        return self.blocks[-1].block_digest

    def append(self, block: LedgerBlock, txn_registry: dict) -> None:
        self.blocks.append(block)
        for tid in block.txn_ids:
            self.committed_ids.add(tid)
            txn = txn_registry.get(tid)
            if txn is not None:
                prev = self.nonce_watermark.get(txn.sender, -1)
                self.nonce_watermark[txn.sender] = max(prev, txn.nonce)

    def state_at(self, height: int, txn_registry: dict) -> tuple:
        """(committed ids, nonce watermarks) at ``height``: kept by ``append``
        at the tip, folded from the prefix below it."""
        if height == self.height:
            return self.committed_ids, self.nonce_watermark
        prefix = Ledger()
        for block in self.blocks[1:height + 1]:
            prefix.append(block, txn_registry)
        return prefix.committed_ids, prefix.nonce_watermark


def node_head(world, node: bytes) -> Digest:
    """Head of a node's chain: the canonical block at its height."""
    return world.canonical.blocks[world.height(node)].block_digest


def active_stake_total(world) -> float:
    """The active devices' stakes summed by ``float_sum``, kept with the
    ``world.status_version`` and ``world.stake_version`` it was summed at:
    an active-set change bumps the one and every stake write the other, so
    a kept total is the float a fresh sum gives."""
    versions = (world.status_version, world.stake_version)
    kept_at, total = world.kept_stake_total
    if kept_at != versions:
        accounts = world.stake_accounts
        total = float_sum(accounts[p].staked for p in world.active)
        world.kept_stake_total = (versions, total)
    return total


def vote_weight(world, node: bytes, total_stake: float = None) -> float:
    """Half stake share, half reputation; renormalization happens at the
    commit threshold where only weight ratios matter. Pass the precomputed
    active-stake total when weighing many nodes at once."""
    sw = world.cfg.consensus.stake_weight
    if total_stake is None:
        total_stake = active_stake_total(world)
    stake = world.stake_accounts[node].staked
    stake_share = stake / total_stake if total_stake > 0 else 0.0
    rep = world.reputation_accounts[node].score
    return sw * stake_share + (1.0 - sw) * rep


def current_proposer(world) -> Optional[bytes]:
    nodes = world.active_devices()
    if not nodes:
        return None
    return nodes[world.round_no % len(nodes)]


def _chainable(world, watermark: dict, ordered_ids: list, cap: int) -> list:
    """Keep ids whose nonces chain gaplessly on top of the watermarks, oldest
    first; verdict records always chain."""
    expected = dict(watermark)
    out = []
    for tid in ordered_ids:
        if len(out) >= cap:
            break
        if tid in world.verdict_registry:
            out.append(tid)
            continue
        txn = world.transactions[tid]
        nxt = expected.get(txn.sender, -1) + 1
        if txn.nonce == nxt:
            expected[txn.sender] = txn.nonce
            out.append(tid)
    return out


def mempool_order(world, ids) -> list:
    """Oldest first; reputation breaks same-tick ties (processing preference);
    a sender's transactions always appear in nonce order so the chainability
    filter never skips a ready transaction."""
    def key(tid):
        txn = world.transactions[tid]
        rep = world.reputation_accounts[txn.sender].score
        return (txn.created_tick, -rep, txn.sender, txn.nonce)
    return sorted(ids, key=key)


def propose_block(world, node: bytes) -> Proposal:
    """Proposal phase: up to batch_cap witnessed transactions plus any
    pending arbitration verdict records, extending the node's head."""
    if node != current_proposer(world):
        raise NotProposer(node.hex())
    pending_verdicts = [v for v in world.pending_verdicts
                        if v not in world.canonical.committed_ids]
    pool = [tid for tid in world.mempool
            if world.transactions[tid].status is TxnStatus.WITNESSED]
    if not pool and not pending_verdicts:
        raise EmptyMempool(node.hex())
    _, watermark = world.canonical.state_at(world.height(node), world.transactions)
    head = node_head(world, node)
    ordered = pending_verdicts + mempool_order(world, pool)
    chosen = _chainable(world, watermark, ordered, world.cfg.consensus.batch_cap)
    if not chosen:
        raise EmptyMempool("no chainable transactions")
    ids = tuple(chosen)
    dig = proposal_digest(node, ids, head, world.tick)
    proposal = Proposal(proposer=node, txn_ids=ids, parent_block=head,
                        tick=world.tick,
                        signature=sign(world.actors[node].keypair, dig))
    vars(proposal)["digest"] = dig  # the signed digest fills the cache
    hexes = world.hexes
    world.log.append(world.tick, "proposal", actor=hexes[node],
                     subject=hexes[dig], txn_count=len(ids),
                     parent=hexes[head])
    return proposal


def honest_accept(world, node: bytes, proposal: Proposal,
                  checks: dict = None) -> bool:
    """Validation phase rule: proposer's signature, witness quorum, nonce
    continuity, no replay.

    The signature and parent checks are the node's own. The transaction
    checks read the node only through its height, so a round passes one
    ``checks`` dict (height -> verdict) to all its validators and each
    height checks the transactions once. The dict must not outlive the
    round: the verdict is only good for the state it was made in."""
    if not verify(proposal.proposer, proposal.digest, proposal.signature):
        return False
    height = world.height(node)
    if proposal.parent_block != node_head(world, node):
        known = any(b.block_digest == proposal.parent_block
                    for b in world.canonical.blocks[:height + 1])
        if not known:
            raise UnknownParent(proposal.parent_block.hex())
        return False  # stale proposal extending an old block
    if checks is None:
        return _txns_acceptable(world, proposal, height)
    verdict = checks.get(height)
    if verdict is None:
        verdict = checks[height] = _txns_acceptable(world, proposal, height)
    return verdict


def _txns_acceptable(world, proposal: Proposal, height: int) -> bool:
    """The proposal's transactions on the chain at ``height``: none
    committed, each witnessed by a quorum of Valid reveals, and each
    sender's nonces chaining gaplessly."""
    quorum = world.cfg.panel.effective_quorum()
    committed_ids, watermark = world.canonical.state_at(height, world.transactions)
    expected = dict(watermark)
    for tid in proposal.txn_ids:
        if tid in committed_ids:
            return False
        if tid in world.verdict_registry:
            continue
        txn = world.transactions.get(tid)
        if txn is None or txn.status is not TxnStatus.WITNESSED:
            return False
        valid_reveals = sum(
            1 for att in txn.attestations.values()
            if att.revealed_verdict is WitnessVerdict.VALID and not att.equivocated)
        if valid_reveals < quorum:
            return False
        nxt = expected.get(txn.sender, -1) + 1
        if txn.nonce != nxt:
            return False
        expected[txn.sender] = txn.nonce
    return True


def cast_vote(world, node: bytes, proposal: Proposal, accept: bool,
              weight: float = None) -> Vote:
    """The node's signed vote; ``weight`` is its ``vote_weight``, weighed
    here when the caller has not weighed it already."""
    if weight is None:
        weight = vote_weight(world, node)
    sig = sign(world.actors[node].keypair,
               vote_message(proposal.digest, accept, weight))
    vote = Vote(validator=node, proposal_digest=proposal.digest, accept=accept,
                weight=weight, signature=sig)
    world.log.append(world.tick, "vote", actor=world.hexes[node],
                     subject=world.hexes[proposal.digest], accept=accept,
                     weight=weight)
    return vote


def validate_proposal(world, node: bytes, proposal: Proposal,
                      weight: float = None, checks: dict = None) -> Vote:
    """Honest validator behavior: check the rules, vote accordingly.
    ``weight`` goes to ``cast_vote``, ``checks`` to ``honest_accept``."""
    if node == proposal.proposer:
        raise NotProposer("proposer does not validate its own proposal")
    profile = world.devices.get(node)
    if profile is None or profile.status is not DeviceStatus.ACTIVE:
        raise NotAuthorized(f"{node.hex()} is not an active node")
    return cast_vote(world, node, proposal,
                     honest_accept(world, node, proposal, checks), weight)


def accepted_weight(votes) -> float:
    """Accepting votes' weight, added left to right (``float_sum``)."""
    return float_sum(v.weight for v in votes if v.accept)


def tally(votes, total_weight: float, threshold: float) -> tuple:
    accept_weight = accepted_weight(votes)
    return accept_weight, accept_weight > threshold * total_weight


def commit_block(world, proposal: Proposal, votes: list,
                 total_weight: float) -> Optional[LedgerBlock]:
    """Commitment phase: strict weighted majority appends the block, and
    every active node at its parent rides the head up with it; a rejected
    proposal returns its transactions."""
    from .transmission import evaluate_witnesses

    hexes = world.hexes
    if world.canonical.head != proposal.parent_block:
        world.log.append(world.tick, "proposal_rejected",
                         subject=hexes[proposal.digest], reason="stale_parent")
        return None
    votes = [v for v in votes if v.proposal_digest == proposal.digest]
    threshold = world.cfg.consensus.commit_threshold
    accept_weight, ok = tally(votes, total_weight, threshold)
    if not ok:
        world.log.append(world.tick, "proposal_rejected",
                         subject=hexes[proposal.digest],
                         accept_weight=accept_weight, total_weight=total_weight)
        return None

    height = world.canonical.height + 1
    parent = world.canonical.head
    block = LedgerBlock(
        height=height, parent=parent, txn_ids=proposal.txn_ids,
        proposer=proposal.proposer, votes=tuple(votes),
        block_digest=block_digest(height, parent, proposal.txn_ids,
                                  proposal.proposer),
        accept_weight=accept_weight, total_weight=total_weight,
        proposal_tick=proposal.tick)

    world.canonical.append(block, world.transactions)
    world.log.append(world.tick, "block_committed",
                     subject=hexes[block.block_digest], height=height,
                     proposer=hexes[proposal.proposer],
                     txn_ids=[hexes[t] for t in proposal.txn_ids],
                     accept_weight=accept_weight, total_weight=total_weight,
                     recipients=world.active_hexes())

    for tid in proposal.txn_ids:
        if tid in world.verdict_registry:
            world.verdict_registry[tid].recorded_block = height
            if tid in world.pending_verdicts:
                world.pending_verdicts.remove(tid)
            continue
        txn = world.transactions[tid]
        txn.status = TxnStatus.COMMITTED
        if tid in world.mempool:
            world.mempool.remove(tid)
        world.log.append_row(world.tick, "txn_committed", "", hexes[tid],
                             _COMMITTED_DETAIL.of(world.tick - txn.created_tick))
        evaluate_witnesses(world, txn)
    return block


def resolve_vote_conflict(world, proposal: Proposal, votes: list,
                          total_weight: float, rng) -> tuple:
    """Contested-band handler: escalate objected transactions to a fresh
    witness round and leave the rest for the next proposal. The ids it
    escalated, in proposal order; an empty tuple when the vote is not
    contested or nothing is flagged."""
    from .transmission import reescalate_disputed

    threshold = world.cfg.consensus.commit_threshold
    band = world.cfg.consensus.contested_band
    accept_weight = accepted_weight(votes)
    contested = abs(accept_weight - threshold * total_weight) <= band * total_weight
    flagged = [tid for tid in proposal.txn_ids
               if tid in world.transactions
               and (world.transactions[tid].objected
                    or world.transactions[tid].status is TxnStatus.DISPUTED)]
    if not contested or not flagged:
        return ()
    for tid in flagged:
        txn = world.transactions[tid]
        txn.status = TxnStatus.DISPUTED
        if tid in world.mempool:
            world.mempool.remove(tid)
        reescalate_disputed(world, txn, rng)
    return tuple(flagged)


def verify_batch(world, start_head: Digest, start_height: int,
                 batch: list) -> None:
    """Full re-verification of a transferred block batch: chain linkage,
    content digests, vote bindings/signatures, and the commit threshold.

    Every vote signature is checked on every sync. A signature that
    ``primitives.sign`` made under the validator's key over this vote's
    message, and that nothing has read, is accepted by construction
    (``primitives.signed_by_construction``) without Ed25519 work; an
    explicit-byte or read signature, and any mismatch, is verified with
    Ed25519."""
    threshold = world.cfg.consensus.commit_threshold
    prev_digest = start_head
    prev_height = start_height
    for block in batch:
        if block.height != prev_height + 1:
            raise ChainIntegrityViolation(
                f"height {block.height} does not follow {prev_height}")
        if block.parent != prev_digest:
            raise ChainIntegrityViolation(f"bad parent at height {block.height}")
        if block.block_digest != block_digest(block.height, block.parent,
                                              block.txn_ids, block.proposer):
            raise ChainIntegrityViolation(f"digest mismatch at height {block.height}")
        expected_pd = proposal_digest(block.proposer, block.txn_ids,
                                      block.parent, block.proposal_tick)
        for v in block.votes:
            if v.proposal_digest != expected_pd:
                raise ChainIntegrityViolation(
                    f"vote bound to foreign proposal at height {block.height}")
            if not verify(v.validator,
                          vote_message(v.proposal_digest, v.accept, v.weight),
                          v.signature):
                raise ChainIntegrityViolation(
                    f"forged vote by {v.validator.hex()} at height {block.height}")
        accept = accepted_weight(block.votes)
        if abs(accept - block.accept_weight) > 1e-9:
            raise ChainIntegrityViolation(
                f"accept weight mismatch at height {block.height}")
        if accept <= threshold * block.total_weight:
            raise ChainIntegrityViolation(
                f"threshold not met at height {block.height}")
        prev_digest = block.block_digest
        prev_height = block.height


def synchronize(world, node_a: bytes, node_b: bytes) -> int:
    """The lower node adopts the missing blocks the higher one serves, after
    full re-verification; returns the number of blocks adopted."""
    ha, hb = world.height(node_a), world.height(node_b)
    if ha == hb:
        return 0
    source, target = (node_a, node_b) if ha > hb else (node_b, node_a)
    from_height = min(ha, hb)

    batch = world.actors[source].serve_sync(world, from_height)
    verify_batch(world, node_head(world, target), from_height, batch)
    to_height = from_height + len(batch)
    world.set_height(target, to_height)
    world.log.append(world.tick, "sync", actor=world.hexes[source],
                     subject=world.hexes[target],
                     blocks=len(batch), from_height=from_height,
                     to_height=to_height)
    return len(batch)


def verify_chain(world, blocks: list) -> None:
    """Re-verify a full chain from genesis (replay integrity check)."""
    if not blocks or blocks[0].block_digest != genesis_block().block_digest:
        raise ChainIntegrityViolation("chain does not start at genesis")
    verify_batch(world, blocks[0].block_digest, 0, blocks[1:])
