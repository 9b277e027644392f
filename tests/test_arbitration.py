import pytest

from gdpsim import arbitration, consensus
from gdpsim.arbitration import (
    DecidingBody,
    DisputeStage,
    appeal,
    arbitrate,
    build_verdict,
    community_review,
    mediate,
    open_dispute,
    select_panel,
)
from gdpsim.errors import (
    AppealExhausted,
    ChainIntegrityViolation,
    EmptyClaim,
    InsufficientArbitrators,
    InsufficientBond,
    UnknownParty,
    WrongStage,
)
from gdpsim.onboarding import DeviceStatus
from gdpsim.primitives import FenwickWeights, SeededRng
from gdpsim.scenarios import get_scenario
from gdpsim.world import build_world, step

from conftest import mini_world, population_cfg


def arb_world(**overrides):
    """World where every honest device qualifies as an arbitrator."""
    world = mini_world(**overrides)
    for pub in world.reputation_accounts:
        world.set_score(pub, 0.9)
    return world


def claim_for(world, accused: bytes, conclusive=True):
    if conclusive:
        ref = world.log.append(world.tick, "commit_mismatch",
                               actor=accused.hex(), subject=accused.hex())
    else:
        ref = world.log.append(world.tick, "txn_created",
                               actor=accused.hex(), subject="t")
    return {"category": "attestation_conflict", "accused": accused.hex(),
            "event_refs": [ref]}


@pytest.fixture
def world():
    return arb_world()


@pytest.fixture
def accused(world):
    return world.active_devices()[0]


def test_open_dispute_happy(world, accused):
    dispute = open_dispute(world, [accused], claim_for(world, accused))
    assert dispute.stage is DisputeStage.MEDIATION
    assert dispute.mediator is not None
    assert dispute.mediator != accused


def test_open_dispute_requires_real_events(world, accused):
    with pytest.raises(EmptyClaim):
        open_dispute(world, [accused], {"event_refs": []})
    with pytest.raises(EmptyClaim):
        open_dispute(world, [accused], {"event_refs": [10 ** 9]})
    assert len(world.log) > 1  # so True == 1 would name a logged event
    with pytest.raises(EmptyClaim):
        open_dispute(world, [accused], {"event_refs": [True]})


def test_open_dispute_unknown_party(world, accused):
    claim = claim_for(world, accused)
    with pytest.raises(UnknownParty):
        open_dispute(world, [b"\xaa" * 32], claim)
    world.set_status(accused, DeviceStatus.BANNED)
    with pytest.raises(UnknownParty):
        open_dispute(world, [accused], claim)


def test_mediator_conflict_free_across_seeds(accused=None):
    for seed in range(0, 1000, 10):
        world = arb_world(seed=seed, operator_groups=4)
        accused = world.active_devices()[0]
        dispute = open_dispute(world, [accused], claim_for(world, accused))
        assert dispute.mediator != accused
        assert world.devices[dispute.mediator].operator_group != \
            world.devices[accused].operator_group


def test_zero_score_candidates_fall_back_instead_of_raising():
    """Experts with no positive score give way to the whole conflict-free
    pool, and a pool with none gives no mediator; neither raises."""
    world = build_world(get_scenario("baseline"))
    accused = world.active_devices()[0]
    experts = world.experts["attestation_conflict"]
    for pub in experts:
        world.set_score(pub, 0.0)
    dispute = open_dispute(world, [accused], claim_for(world, accused))
    assert dispute.mediator is not None
    assert dispute.mediator not in experts
    for pub in world.devices:
        if pub != accused:
            world.set_score(pub, 0.0)
    dispute = open_dispute(world, [accused], claim_for(world, accused))
    assert dispute.mediator is None
    assert world.disputes[dispute.id] is dispute
    assert world.log[len(world.log) - 1].detail["mediator"] == ""


def test_pool_mediator_draw_builds_no_tree(monkeypatch):
    """With the witness weights built, a mediator drawn from the whole
    pool of a large world is a descent of the world's tree: opening the
    dispute builds no ``FenwickWeights``, and reads no member of the active
    set, though a status change has just replaced it."""
    world = build_world(population_cfg(duration_ticks=1, drain_ticks=0))
    assert len(world.devices) >= 500
    world.witness_weights()
    accused = world.active_devices()[-1]
    claim = claim_for(world, accused)
    claim["category"] = "tampering"
    assert not world.experts.get("tampering")
    world.set_status(world.active_devices()[0], DeviceStatus.QUARANTINED)
    built = []

    def counted(self, *args, _init=FenwickWeights.__init__):
        built.append("FenwickWeights")
        _init(self, *args)

    class Watched(list):
        def __iter__(self):
            built.append("active scan")
            return super().__iter__()

        def __getitem__(self, i):
            built.append("active read")
            return super().__getitem__(i)

    monkeypatch.setattr(FenwickWeights, "__init__", counted)
    monkeypatch.setattr(world, "active", Watched(world.active))
    dispute = open_dispute(world, [accused], claim)
    assert dispute.mediator not in (None, accused)
    assert built == []


def test_mediate_all_accept_closes(world, accused):
    dispute = open_dispute(world, [accused], claim_for(world, accused))
    ruling = build_verdict(world, dispute, [], DecidingBody.MEDIATOR)
    stage = mediate(world, dispute, ruling)  # no-fault: accused accepts
    assert stage is DisputeStage.CLOSED
    assert dispute.decision.deciding_body is DecidingBody.MEDIATOR


def test_mediate_rejection_escalates(world, accused):
    dispute = open_dispute(world, [accused], claim_for(world, accused))
    ruling = build_verdict(world, dispute, [accused], DecidingBody.MEDIATOR)
    stage = mediate(world, dispute, ruling)  # faulted party refuses
    assert stage is DisputeStage.COMMUNITY_REVIEW


def test_mediate_wrong_stage(world, accused):
    dispute = open_dispute(world, [accused], claim_for(world, accused))
    mediate(world, dispute, build_verdict(world, dispute, [],
                                          DecidingBody.MEDIATOR))
    with pytest.raises(WrongStage):
        mediate(world, dispute, None)


def test_community_review_conclusive_evidence_convicts(world, accused):
    dispute = open_dispute(world, [accused], claim_for(world, accused))
    mediate(world, dispute, build_verdict(world, dispute, [accused],
                                          DecidingBody.MEDIATOR))
    stage = community_review(world, dispute, SeededRng(1))
    assert stage is DisputeStage.CLOSED
    assert dispute.decision.deciding_body is DecidingBody.COMMUNITY
    assert accused in dispute.decision.at_fault


def test_community_review_clears_without_evidence(world, accused):
    dispute = open_dispute(world, [accused], claim_for(world, accused,
                                                       conclusive=False))
    mediate(world, dispute, build_verdict(world, dispute, [accused],
                                          DecidingBody.MEDIATOR))
    stage = community_review(world, dispute, SeededRng(2))
    assert stage is DisputeStage.CLOSED
    assert dispute.decision.at_fault == ()


def test_community_split_escalates_to_panel(world, accused):
    # half the voters see guilt, half do not: no two-thirds side
    dispute = open_dispute(world, [accused], claim_for(world, accused))
    mediate(world, dispute, build_verdict(world, dispute, [accused],
                                          DecidingBody.MEDIATOR))
    voters = arbitration._conflict_free(world, dispute)
    for i, voter in enumerate(voters):
        world.actors[voter].community_vote = (
            lambda w, d, _v=(i % 2 == 0): _v)
    stage = community_review(world, dispute, SeededRng(3))
    assert stage is DisputeStage.PANEL_SELECTION


def test_parties_never_vote(world, accused):
    dispute = open_dispute(world, [accused], claim_for(world, accused))
    voters = arbitration._conflict_free(world, dispute)
    assert accused not in voters


def _dispute_at_panel_selection(world, accused):
    dispute = open_dispute(world, [accused], claim_for(world, accused))
    mediate(world, dispute, build_verdict(world, dispute, [accused],
                                          DecidingBody.MEDIATOR))
    voters = arbitration._conflict_free(world, dispute)
    for i, voter in enumerate(voters):
        world.actors[voter].community_vote = (
            lambda w, d, _v=(i % 2 == 0): _v)
    community_review(world, dispute, SeededRng(4))
    assert dispute.stage is DisputeStage.PANEL_SELECTION
    return dispute


def test_select_panel_exactly_pool(world, accused):
    dispute = _dispute_at_panel_selection(world, accused)
    pool = [p for p in arbitration._conflict_free(
                world, dispute, {dispute.mediator})
            if world.devices[p].arbitrator
            and world.reputation_accounts[p].score >= 0.8]
    for extra in pool[5:]:
        world.devices[extra].arbitrator = False
    panel = select_panel(world, dispute, SeededRng(5))
    assert sorted(panel) == sorted(pool[:5])
    assert dispute.stage is DisputeStage.FINAL_ARBITRATION


def test_select_panel_excludes_mediator(world, accused):
    for seed in range(100):
        w = arb_world(seed=seed)
        target = w.active_devices()[0]
        dispute = _dispute_at_panel_selection(w, target)
        panel = select_panel(w, dispute, SeededRng(seed))
        assert dispute.mediator not in panel
        assert target not in panel


def test_select_panel_insufficient(world, accused):
    dispute = _dispute_at_panel_selection(world, accused)
    pool = [p for p in arbitration._conflict_free(
                world, dispute, {dispute.mediator})
            if world.devices[p].arbitrator]
    for extra in pool[4:]:
        world.devices[extra].arbitrator = False
    with pytest.raises(InsufficientArbitrators):
        select_panel(world, dispute, SeededRng(6))


def test_arbitrate_majority_verdict(world, accused):
    dispute = _dispute_at_panel_selection(world, accused)
    panel = select_panel(world, dispute, SeededRng(7))
    votes = {p: (i < 3) for i, p in enumerate(panel)}  # 3-2 guilty
    verdict = arbitrate(world, dispute, votes)
    assert dispute.stage is DisputeStage.CLOSED
    assert accused in verdict.at_fault
    penalties = [e for e in world.log if e.kind == "incentive"
                 and e.subject == accused.hex()
                 and e.detail["cause"] == f"dispute:{dispute.id}"]
    assert penalties  # remedies dispatched


def test_arbitrate_unanimous_clear_restores(world, accused):
    before = 0.6
    world.set_score(accused, before)
    dispute = _dispute_at_panel_selection(world, accused)
    panel = select_panel(world, dispute, SeededRng(8))
    verdict = arbitrate(world, dispute, {p: False for p in panel})
    assert verdict.at_fault == ()
    restored = [e for e in world.log if e.kind == "incentive"
                and e.detail["incentive_kind"] == "ReputationRestore"
                and e.subject == accused.hex()]
    assert restored
    assert world.reputation_accounts[accused].score > before


def test_remedies_dispatch_exactly_once(world, accused):
    dispute = _dispute_at_panel_selection(world, accused)
    panel = select_panel(world, dispute, SeededRng(9))
    arbitrate(world, dispute, {p: True for p in panel})
    count = len([e for e in world.log if e.kind == "incentive"
                 and e.detail["cause"] == f"dispute:{dispute.id}"])
    arbitration._dispatch_remedies(world, dispute, dispute.decision)
    again = len([e for e in world.log if e.kind == "incentive"
                 and e.detail["cause"] == f"dispute:{dispute.id}"])
    assert count == again


def _closed_dispute(world, accused, guilty=True):
    dispute = _dispute_at_panel_selection(world, accused)
    panel = select_panel(world, dispute, SeededRng(10))
    arbitrate(world, dispute, {p: guilty for p in panel})
    return dispute


def test_appeal_disjoint_panel_and_final():
    world = arb_world(n_witness_pool=14)
    accused = world.active_devices()[0]
    world.stake_accounts[accused].liquid = 50.0
    dispute = _closed_dispute(world, accused)
    original_panel = set(dispute.panel)
    verdict = appeal(world, dispute, SeededRng(11))
    assert dispute.appeal_used
    assert dispute.stage is DisputeStage.CLOSED
    assert verdict.deciding_body is DecidingBody.APPEAL_PANEL
    appeal_events = [e for e in world.log if e.kind == "appeal"]
    appeal_panel = {bytes.fromhex(p) for p in appeal_events[-1].detail["panel"]}
    assert appeal_panel.isdisjoint(original_panel)


def test_appeal_disjointness_across_seeds():
    for seed in range(0, 300, 7):
        world = arb_world(seed=seed, n_witness_pool=14)
        accused = world.active_devices()[0]
        world.stake_accounts[accused].liquid = 50.0
        dispute = _closed_dispute(world, accused)
        original = set(dispute.panel)
        appeal(world, dispute, SeededRng(seed))
        ev = [e for e in world.log if e.kind == "appeal"][-1]
        assert {bytes.fromhex(p) for p in ev.detail["panel"]}.isdisjoint(original)


def test_second_appeal_exhausted():
    world = arb_world(n_witness_pool=14)
    accused = world.active_devices()[0]
    world.stake_accounts[accused].liquid = 100.0
    dispute = _closed_dispute(world, accused)
    appeal(world, dispute, SeededRng(12))
    with pytest.raises(AppealExhausted):
        appeal(world, dispute, SeededRng(13))


def test_appeal_requires_bond(world, accused):
    world.stake_accounts[accused].liquid = 0.0
    dispute = _closed_dispute(world, accused)
    with pytest.raises(InsufficientBond):
        appeal(world, dispute, SeededRng(14))


def test_appeal_bond_forfeited_on_loss():
    world = arb_world(n_witness_pool=14)
    accused = world.active_devices()[0]
    world.stake_accounts[accused].liquid = 20.0
    dispute = _closed_dispute(world, accused)  # guilty, with hard evidence
    treasury_before = world.treasury
    appeal(world, dispute, SeededRng(15))
    # appeal panel still sees conclusive evidence: outcome unchanged
    assert world.stake_accounts[accused].liquid == 0.0
    assert world.treasury == pytest.approx(treasury_before + 20.0)


def test_stage_monotonicity_in_log():
    world = arb_world(n_witness_pool=14)
    accused = world.active_devices()[0]
    world.stake_accounts[accused].liquid = 50.0
    dispute = _closed_dispute(world, accused)
    appeal(world, dispute, SeededRng(16))
    order = {"Mediation": 0, "CommunityReview": 1, "PanelSelection": 2,
             "FinalArbitration": 3, "Closed": 4, "Appealed": 5}
    seen = []
    for ev in world.log:
        if ev.subject != dispute.id:
            continue
        if ev.kind == "dispute_stage":
            seen.append(order[ev.detail["stage"]])
    assert seen == sorted(seen)


def test_verdict_recorded_on_ledger_and_immutable(world, accused):
    from tests_helpers_consensus import grow_chain_with_verdict
    dispute = _closed_dispute(world, accused)
    vid = dispute.decision.id
    assert vid in world.verdict_registry
    assert vid in world.pending_verdicts
    block = grow_chain_with_verdict(world)
    assert vid in block.txn_ids
    assert world.verdict_registry[vid].recorded_block == block.height
    consensus.verify_chain(world, world.canonical.blocks)
    # tampering with the recorded block must break chain verification
    tampered = list(world.canonical.blocks)
    victim = tampered[block.height]
    swapped = tuple(t if t != vid else b"\x00" * 32 for t in victim.txn_ids)
    tampered[block.height] = consensus.LedgerBlock(
        height=victim.height, parent=victim.parent, txn_ids=swapped,
        proposer=victim.proposer, votes=victim.votes,
        block_digest=victim.block_digest,
        accept_weight=victim.accept_weight, total_weight=victim.total_weight,
        proposal_tick=victim.proposal_tick)
    with pytest.raises(ChainIntegrityViolation):
        consensus.verify_chain(world, tampered)


@pytest.mark.parametrize("name", ["equivocation", "key_compromise"])
def test_only_open_disputes_are_advanced(name, monkeypatch):
    """``world.disputes`` holds the open disputes only: a verdict drops its
    dispute, so the per-tick phase never advances a closed one."""
    advanced = []
    advance = arbitration.advance

    def recorded(world, dispute):
        advanced.append(dispute.stage)
        return advance(world, dispute)

    monkeypatch.setattr(arbitration, "advance", recorded)
    cfg = get_scenario(name)
    world = build_world(cfg)
    opened, closed = set(), set()
    for _ in range(cfg.duration_ticks):
        checked = len(world.log)
        step(world)
        for i in range(checked, len(world.log)):
            ev = world.log[i]
            if ev.kind == "dispute_opened":
                opened.add(ev.subject)
            elif ev.kind == "verdict":
                closed.add(ev.subject)
        assert set(world.disputes) == opened - closed
    assert len(opened) == 3 and closed
    assert advanced
    assert not {DisputeStage.CLOSED, DisputeStage.APPEALED} & set(advanced)
