"""Decentralized dispute resolution: mediation, community review, panel
arbitration, and a single bonded appeal.

Every selection (mediator, panel, appeal panel) is reputation-weighted and
conflict-free: never a party, never a party's operator group, and appeal
panels are fully disjoint from the original panel. Closing a dispute
dispatches its remedies exactly once and queues the verdict for inclusion in
the next ledger block. ``advance`` runs a dispute's current stage; the world
drives every dispute through it alone.

No draw visits every active device. The mediator is an expert in the
claim's category (``world.experts``) while a conflict-free one has a
positive score. Otherwise it is one descent of the world's witness-weight
tree with the parties' operator groups taken out: O((excluded + 1) log N),
without reading the active set. Panels are drawn from the devices
onboarded as arbitrators (``world.arbitrators``). Only community review
reads every active device, because each one votes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import incentives
from .consensus import active_stake_total, vote_weight
from .errors import (
    AppealExhausted,
    EmptyClaim,
    InsufficientArbitrators,
    UnknownParty,
    WrongStage,
)
from .onboarding import DeviceStatus
from .primitives import Digest, digest, sample_without_replacement


class DisputeStage(Enum):
    MEDIATION = "Mediation"
    COMMUNITY_REVIEW = "CommunityReview"
    PANEL_SELECTION = "PanelSelection"
    FINAL_ARBITRATION = "FinalArbitration"
    APPEALED = "Appealed"
    CLOSED = "Closed"


class DecidingBody(Enum):
    MEDIATOR = "Mediator"
    COMMUNITY = "Community"
    PANEL = "Panel"
    APPEAL_PANEL = "AppealPanel"


@dataclass
class Verdict:
    at_fault: tuple
    remedies: list
    rationale_digest: Digest
    deciding_body: DecidingBody
    recorded_block: Optional[int] = None

    @property
    def id(self) -> Digest:
        return digest(b"verdict" + self.rationale_digest
                      + b"".join(self.at_fault)
                      + self.deciding_body.value.encode())


@dataclass
class Dispute:
    id: str
    parties: list
    claim: dict
    stage: DisputeStage
    opened_tick: int
    mediator: Optional[bytes] = None
    panel: list = field(default_factory=list)
    decision: Optional[Verdict] = None
    appeal_used: bool = False
    community_tally: dict = field(default_factory=dict)
    remedies_dispatched: bool = False


def _party_groups(world, dispute: Dispute) -> set:
    return {world.devices[p].operator_group
            for p in dispute.parties if p in world.devices}


def _conflict_free(world, dispute: Dispute, extra_excluded=frozenset(),
                   among=None):
    """Active devices that are not parties, share no party's operator group,
    and are not otherwise excluded: all of them in device order, or those of
    ``among`` in its order."""
    excluded = {*dispute.parties, *extra_excluded}
    for group in _party_groups(world, dispute):
        excluded.update(world.group_members[group])
    if among is None:
        return [pub for pub in world.active if pub not in excluded]
    devices = world.devices
    return [pub for pub in among if pub not in excluded
            and devices[pub].status is DeviceStatus.ACTIVE]


def _weighted_draw(world, rng, pool: list, k: int) -> list:
    weights = [world.reputation_accounts[p].score for p in pool]
    return sample_without_replacement(rng, pool, weights, k)


def _draw_mediator(world, dispute: Dispute, rng) -> Optional[bytes]:
    """A reputation-weighted conflict-free mediator: an expert in the
    claim's category while one has a positive score, else any active
    device; None when no candidate has a positive score.

    The experts come from ``world.experts``. The general draw is one descent
    of the world's witness-weight tree with the parties' operator groups
    (``world.group_members``) taken out, which picks what a draw over
    ``_conflict_free`` would; it reads neither the active set nor any
    device outside those groups.
    """
    experts = _conflict_free(world, dispute, among=world.experts.get(
        dispute.claim.get("category", ""), ()))
    if any(world.reputation_accounts[p].score > 0 for p in experts):
        return _weighted_draw(world, rng, experts, 1)[0]
    # a party is in its own group; a member that is not active weighs 0
    masked = [pub for group in _party_groups(world, dispute)
              for pub in world.group_members[group]]
    picks = world.witness_weights().draw(rng, masked, 1)
    return picks[0] if picks else None


def can_be_party(world, pub) -> bool:
    """Only an active or quarantined device can be a dispute party."""
    profile = world.devices.get(pub)
    return profile is not None and profile.status in (DeviceStatus.ACTIVE,
                                                      DeviceStatus.QUARANTINED)


def open_dispute(world, parties: list, claim: dict) -> Dispute:
    """Open at the mediation stage with an algorithmically chosen mediator."""
    refs = claim.get("event_refs", [])
    if not refs or not all(world.log.exists(r) for r in refs):
        raise EmptyClaim("claim must cite existing logged events")
    for party in parties:
        if not can_be_party(world, party):
            raise UnknownParty(party.hex() if isinstance(party, bytes) else str(party))

    dispute_id = f"D{world.dispute_seq:05d}"
    world.dispute_seq += 1
    dispute = Dispute(id=dispute_id, parties=list(parties), claim=claim,
                      stage=DisputeStage.MEDIATION, opened_tick=world.tick)

    dispute.mediator = _draw_mediator(world, dispute, world.rng_arbitration)
    world.disputes[dispute_id] = dispute
    world.log.append(world.tick, "dispute_opened", subject=dispute_id,
                     parties=[world.hexes[p] for p in parties],
                     category=claim.get("category", ""),
                     mediator=(world.hexes[dispute.mediator]
                               if dispute.mediator else ""))
    return dispute


def _record_verdict(world, dispute: Dispute, verdict: Verdict, kind: str,
                    **detail) -> None:
    """Close and drop the dispute; queue the verdict for a block, log it."""
    dispute.decision = verdict
    dispute.stage = DisputeStage.CLOSED
    world.disputes.pop(dispute.id, None)  # an appeal records a second time
    vid = verdict.id
    world.verdict_registry[vid] = verdict
    world.pending_verdicts.append(vid)
    world.log.append(world.tick, kind, subject=dispute.id,
                     at_fault=[world.hexes[p] for p in verdict.at_fault],
                     verdict_id=world.hexes[vid], **detail)


def _close(world, dispute: Dispute, verdict: Verdict) -> Verdict:
    _record_verdict(world, dispute, verdict, "verdict",
                    body=verdict.deciding_body.value)
    _dispatch_remedies(world, dispute, verdict)
    return verdict


def _dispatch_remedies(world, dispute: Dispute, verdict: Verdict) -> None:
    """Exactly-once per closing verdict."""
    if dispute.remedies_dispatched:
        return
    dispute.remedies_dispatched = True
    for remedy in verdict.remedies:
        subject = remedy["subject"]
        if remedy["action"] == "penalty":
            incentives.apply_penalty(
                world, subject, incentives.Severity[remedy["severity"].upper()],
                cause=f"dispute:{dispute.id}")
        elif remedy["action"] == "restore":
            incentives.restore_reputation(world, subject, remedy["amount"],
                                          cause=f"dispute:{dispute.id}")


def build_verdict(world, dispute: Dispute, at_fault: list,
                  body: DecidingBody) -> Verdict:
    """Standard remedy template: penalty for faulted parties, reputation
    restoration for cleared accused parties."""
    remedies = []
    severity = "Major" if dispute.claim.get("category") == "tampering" else "Minor"
    for party in at_fault:
        remedies.append({"action": "penalty", "subject": party,
                         "severity": severity})
    if not at_fault:
        for party in dispute.parties:
            remedies.append({"action": "restore", "subject": party,
                             "amount": 0.1})
    rationale = digest(json.dumps(
        {"dispute": dispute.id, "claim_category": dispute.claim.get("category"),
         "at_fault": [world.hexes[p] for p in at_fault], "body": body.value},
        sort_keys=True).encode())
    return Verdict(at_fault=tuple(at_fault), remedies=remedies,
                   rationale_digest=rationale, deciding_body=body)


def mediate(world, dispute: Dispute, ruling: Optional[Verdict]) -> DisputeStage:
    """Swift path: close if every party accepts the mediator's ruling."""
    if dispute.stage is not DisputeStage.MEDIATION:
        raise WrongStage(dispute.stage.value)
    accepted = ruling is not None and all(
        world.actors[p].accepts_mediation(dispute, ruling)
        for p in dispute.parties if p in world.actors)
    if accepted:
        _close(world, dispute, ruling)
    else:
        _enter(world, dispute, DisputeStage.COMMUNITY_REVIEW)
    return dispute.stage


def community_review(world, dispute: Dispute, rng) -> DisputeStage:
    """Weighted vote of every active non-party; a two-thirds side closes it."""
    if dispute.stage is not DisputeStage.COMMUNITY_REVIEW:
        raise WrongStage(dispute.stage.value)
    voters = _conflict_free(world, dispute)
    stake_total = active_stake_total(world)
    guilty_weight = 0.0
    clear_weight = 0.0
    for voter in voters:
        w = vote_weight(world, voter, stake_total)
        if world.actors[voter].community_vote(world, dispute):
            guilty_weight += w
        else:
            clear_weight += w
    total = guilty_weight + clear_weight
    dispute.community_tally = {"guilty": guilty_weight, "clear": clear_weight}
    threshold = world.cfg.arbitration.community_threshold
    world.log.append(world.tick, "dispute_stage", subject=dispute.id,
                     stage="CommunityReview", guilty=guilty_weight,
                     clear=clear_weight)
    cut = threshold * total
    if total > 0 and max(guilty_weight, clear_weight) >= cut:
        _close(world, dispute, _ruling(world, dispute, guilty_weight >= cut,
                                       DecidingBody.COMMUNITY))
    else:
        _enter(world, dispute, DisputeStage.PANEL_SELECTION)
    return dispute.stage


def _enter(world, dispute: Dispute, stage: DisputeStage, **detail) -> None:
    dispute.stage = stage
    world.log.append(world.tick, "dispute_stage", subject=dispute.id,
                     stage=stage.value, **detail)


def _accused(dispute: Dispute) -> list:
    accused_hex = dispute.claim.get("accused")
    if accused_hex:
        return [bytes.fromhex(accused_hex)]
    return list(dispute.parties[:1])


def _ruling(world, dispute: Dispute, guilty: bool, body: DecidingBody) -> Verdict:
    return build_verdict(world, dispute, _accused(dispute) if guilty else [],
                         body)


def _majority(votes: dict) -> bool:
    return sum(1 for v in votes.values() if v) > len(votes) / 2


def _draw_panel(world, dispute: Dispute, rng, excluded=()) -> list:
    """Reputation-weighted draw of vetted, conflict-free arbitrators, never
    the mediator nor anyone in ``excluded``."""
    size = world.cfg.arbitration.panel_size
    min_rep = world.cfg.arbitration.arbitrator_min_reputation
    pool = [p for p in _conflict_free(world, dispute,
                                      {dispute.mediator, *excluded},
                                      among=world.arbitrators)
            if world.devices[p].arbitrator
            and world.reputation_accounts[p].score >= min_rep]
    if len(pool) < size:
        raise InsufficientArbitrators(f"pool of {len(pool)}, need {size}")
    return _weighted_draw(world, rng, pool, size)


def select_panel(world, dispute: Dispute, rng) -> list:
    """Stochastic draw of five vetted arbitrators, conflict-free and
    excluding the mediator."""
    if dispute.stage is not DisputeStage.PANEL_SELECTION:
        raise WrongStage(dispute.stage.value)
    dispute.panel = _draw_panel(world, dispute, rng)
    _enter(world, dispute, DisputeStage.FINAL_ARBITRATION,
           panel=[world.hexes[p] for p in dispute.panel])
    return dispute.panel


def arbitrate(world, dispute: Dispute, panel_votes: dict) -> Verdict:
    """Binding majority decision of the arbitration panel."""
    if dispute.stage is not DisputeStage.FINAL_ARBITRATION:
        raise WrongStage(dispute.stage.value)
    verdict = _ruling(world, dispute, _majority(panel_votes), DecidingBody.PANEL)
    return _close(world, dispute, verdict)


def appeal(world, dispute: Dispute, rng) -> Verdict:
    """Single bonded appeal before a fully disjoint panel; its verdict is
    final and the bond is forfeited unless the outcome flips."""
    if dispute.stage is not DisputeStage.CLOSED or dispute.decision is None:
        raise WrongStage(dispute.stage.value)
    if dispute.appeal_used:
        raise AppealExhausted(dispute.id)

    original = dispute.decision
    appellant = original.at_fault[0] if original.at_fault else dispute.parties[0]
    bond = world.cfg.incentives.appeal_bond
    cause = f"appeal:{dispute.id}"
    incentives.post_bond(world, appellant, bond, cause=cause)

    dispute.appeal_used = True
    dispute.stage = DisputeStage.APPEALED
    try:
        appeal_panel = _draw_panel(world, dispute, rng, dispute.panel)
    except InsufficientArbitrators:
        # refund rather than strand the bond when no disjoint panel exists
        incentives.settle_bond(world, appellant, bond, refunded=True,
                               cause=cause)
        raise

    votes = {p: world.actors[p].panel_vote(world, dispute) for p in appeal_panel}
    verdict = _ruling(world, dispute, _majority(votes), DecidingBody.APPEAL_PANEL)
    flipped = set(verdict.at_fault) != set(original.at_fault)
    incentives.settle_bond(world, appellant, bond, refunded=flipped, cause=cause)
    dispute.remedies_dispatched = False  # the appeal verdict dispatches anew
    _record_verdict(world, dispute, verdict, "appeal", flipped=flipped,
                    panel=[world.hexes[p] for p in appeal_panel])
    if flipped and not verdict.at_fault:
        for party in original.at_fault:
            incentives.restore_reputation(world, party, 0.1, cause=cause)
    _dispatch_remedies(world, dispute, verdict)
    return verdict


def advance(world, dispute: Dispute) -> DisputeStage:
    """Run the dispute's current stage once; the world calls this once per
    open dispute and tick. A closed or appealed dispute does not move."""
    stage = dispute.stage
    if stage is DisputeStage.MEDIATION:
        mediator = world.actors.get(dispute.mediator)
        conclusive = mediator is not None and mediator.conclusive(world, dispute)
        mediate(world, dispute, _ruling(world, dispute, conclusive,
                                        DecidingBody.MEDIATOR))
    elif stage is DisputeStage.COMMUNITY_REVIEW:
        community_review(world, dispute, world.rng_arbitration)
    elif stage is DisputeStage.PANEL_SELECTION:
        try:
            select_panel(world, dispute, world.rng_arbitration)
        except InsufficientArbitrators:
            # no panel can be seated: the community tally's leaning decides
            tally = dispute.community_tally
            _close(world, dispute, _ruling(
                world, dispute, tally.get("guilty", 0.0) > tally.get("clear", 0.0),
                DecidingBody.COMMUNITY))
    elif stage is DisputeStage.FINAL_ARBITRATION:
        votes = {p: world.actors[p].panel_vote(world, dispute)
                 for p in dispute.panel}
        arbitrate(world, dispute, votes)
    return dispute.stage
