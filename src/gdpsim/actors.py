"""Device actors: per-device keys, secrets, and behavior policies.

Honest behavior is the base class; each adversary model overrides exactly
the policy hooks it abuses. Adversarial actions still flow through the
public protocol operations; an actor can lie about what it observed or
serve forged data, but it cannot reach into world state.
"""

from __future__ import annotations

from typing import Optional

from . import anomaly, consensus, onboarding, stochastic, transmission
from .primitives import KeyPair, SeededRng, digest, generate_keypair


class DeviceActor:
    """Honest device: truthful witness, rule-following validator."""

    role = "honest"

    def __init__(self, rng: SeededRng, role: str = None):
        self.rng = rng
        self.keypair: KeyPair = generate_keypair(rng)
        self.auth_secret: bytes = rng.bytes(32)
        if role is not None:
            self.role = role

    @property
    def pub(self) -> bytes:
        return self.keypair.public_key

    # --- onboarding / revalidation ---

    def challenge_answer(self, challenge) -> bytes:
        return onboarding.challenge_answer(self.auth_secret, challenge)

    def totp(self, window: int) -> int:
        return onboarding.totp_code(self.auth_secret, window)

    # --- witnessing ---

    def witness_verdict(self, world, txn) -> transmission.Verdict:
        """Honest witnesses compare the advertised digest with the one they
        observe on the wire (the simulator's observation channel).

        Every override must stay pure: read no ``self.rng``, store no
        attribute, call nothing that changes state. Deep scrutiny skips the
        re-derivation for witnesses that cannot object, which moves no byte
        only because a call leaves nothing behind."""
        truth = world.ground_truth[txn.id]
        if txn.payload_digest == truth.true_digest:
            return transmission.Verdict.VALID
        return transmission.Verdict.INVALID

    def make_salt(self) -> bytes:
        return self.rng.bytes(16)

    def will_reveal(self) -> bool:
        return True

    def reveal_verdict(self, committed: transmission.Verdict) -> transmission.Verdict:
        return committed

    # --- sending ---

    def make_payload(self, world, size: int):
        """Returns (advertised_digest, true_digest)."""
        payload = self.rng.bytes(size)
        d = digest(payload)
        return d, d

    # --- consensus ---

    def vote_accept(self, world, proposal) -> Optional[bool]:
        """None means: apply the honest validation rule."""
        return None

    def solve_puzzle(self, base: bytes, difficulty: int,
                     max_attempts: int) -> Optional[int]:
        nonce, _ = stochastic.solve_puzzle(base, difficulty, max_attempts)
        return nonce

    def serve_sync(self, world, from_height: int):
        """Canonical blocks above from_height up to this node's height."""
        return world.canonical.blocks[from_height + 1:world.height(self.pub) + 1]

    # --- arbitration policies ---

    def accepts_mediation(self, dispute, ruling) -> bool:
        return self.pub not in ruling.at_fault

    def conclusive(self, world, dispute) -> bool:
        """The claim cites a protocol violation."""
        _, kinds, _, _, details = world.log.columns()
        return any(anomaly.is_violation(kinds[ref], details[ref])
                   for ref in dispute.claim.get("event_refs", []))

    def community_vote(self, world, dispute) -> bool:
        return self.conclusive(world, dispute)

    def panel_vote(self, world, dispute) -> bool:
        return self.conclusive(world, dispute)


class TamperingSender(DeviceActor):
    """Advertises a digest that does not match the transmitted payload.

    With ``collude`` set, it also attests Valid to everything when drafted
    as a witness (a collusion ring of senders covering for each other).
    """

    role = "tampering_sender"

    def __init__(self, rng, tamper_rate: float = 1.0, collude: bool = False):
        super().__init__(rng)
        self.tamper_rate = tamper_rate
        self.collude = collude

    def make_payload(self, world, size: int):
        payload = self.rng.bytes(size)
        true_digest = digest(payload)
        if self.rng.bernoulli(self.tamper_rate):
            return digest(payload + b"tampered"), true_digest
        return true_digest, true_digest

    def witness_verdict(self, world, txn) -> transmission.Verdict:
        if self.collude:
            return transmission.Verdict.VALID
        return super().witness_verdict(world, txn)

    def vote_accept(self, world, proposal) -> Optional[bool]:
        return True

    def community_vote(self, world, dispute) -> bool:
        return False


class ColludingWitness(DeviceActor):
    """Attests Valid no matter what it observes."""

    role = "colluding_witness"

    def witness_verdict(self, world, txn) -> transmission.Verdict:
        return transmission.Verdict.VALID

    def vote_accept(self, world, proposal) -> Optional[bool]:
        return True

    def community_vote(self, world, dispute) -> bool:
        return False

    def panel_vote(self, world, dispute) -> bool:
        return False


class LazyWitness(DeviceActor):
    """Commits but never reveals; counted Invalid and penalized at deadline."""

    role = "lazy_witness"

    def will_reveal(self) -> bool:
        return False


class EquivocatingWitness(DeviceActor):
    """Reveals the opposite of what it committed to."""

    role = "equivocating_witness"

    def reveal_verdict(self, committed: transmission.Verdict) -> transmission.Verdict:
        if committed is transmission.Verdict.VALID:
            return transmission.Verdict.INVALID
        return transmission.Verdict.VALID


class ForgedSyncNode(DeviceActor):
    """Serves syntactically valid blocks with fabricated content and votes."""

    role = "forged_sync_node"

    def serve_sync(self, world, from_height: int):
        real = super().serve_sync(world, from_height)
        if not real:
            return real
        forged = []
        parent = real[0].parent
        for block in real:
            fake_ids = tuple(digest(tid + b"forged") for tid in block.txn_ids)
            fake_ids = fake_ids or (digest(b"forged" + block.block_digest),)
            forged_block = consensus.LedgerBlock(
                height=block.height, parent=parent, txn_ids=fake_ids,
                proposer=self.pub, votes=block.votes,
                block_digest=consensus.block_digest(block.height, parent,
                                                    fake_ids, self.pub),
                accept_weight=block.accept_weight,
                total_weight=block.total_weight,
                proposal_tick=block.proposal_tick)
            forged.append(forged_block)
            parent = forged_block.block_digest
        return forged


class SybilIdentity(DeviceActor):
    """One of many cheap identities in a flood; honest-looking behavior."""

    role = "sybil"


ADVERSARY_ACTORS = {
    "tampering_sender": TamperingSender,
    "colluding_witnesses": ColludingWitness,
    "lazy_witness": LazyWitness,
    "equivocating_witness": EquivocatingWitness,
    "forged_sync_node": ForgedSyncNode,
    "sybil_flood": SybilIdentity,
}
