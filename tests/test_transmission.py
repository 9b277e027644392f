import itertools

import pytest

from gdpsim import incentives, stochastic, transmission
from gdpsim import world as world_mod
from gdpsim.errors import (
    AlreadyCommitted,
    CommitMismatch,
    InsufficientWitnesses,
    NotOnPanel,
    RevealTooEarly,
)
from gdpsim.events import encode_event
from gdpsim.primitives import SeededRng, digest
from gdpsim.scenarios import get_scenario
from gdpsim.transmission import (
    TxnStatus,
    Verdict,
    aggregate_attestations,
    aggregation_oracle,
    make_commit,
    open_panel,
    select_witnesses,
    submit_transaction,
    witness_commit,
    witness_reveal,
)

from conftest import mini_world


def make_txn(world, payload=b"payload"):
    senders = world.sender_pool()
    return submit_transaction(world, senders[0], senders[1], digest(payload))


def commit_all(world, txn, verdicts=None):
    """Drive the commit phase for every panel member; returns salts."""
    salts = {}
    for witness in txn.panel:
        verdict = (verdicts or {}).get(witness, Verdict.VALID)
        salt = world.actors[witness].make_salt()
        witness_commit(world, witness, txn, verdict, salt)
        salts[witness] = (verdict, salt)
    return salts


def test_nonce_strictly_increases_per_sender(world):
    sender = world.sender_pool()[0]
    receiver = world.sender_pool()[1]
    nonces = [submit_transaction(world, sender, receiver, digest(b"%d" % i)).nonce
              for i in range(5)]
    assert nonces == [0, 1, 2, 3, 4]


def test_select_exactly_k_eligible(world):
    # shrink the world to exactly k eligible witnesses
    txn = make_txn(world)
    eligible = [p for p in world.active_devices()
                if p not in (txn.sender, txn.receiver)]
    for extra in eligible[world.cfg.panel.k:]:
        world.set_status(extra, transmission.DeviceStatus.QUARANTINED)
    panel = select_witnesses(world, txn, SeededRng(5))
    assert sorted(panel) == sorted(eligible[:world.cfg.panel.k])


def test_sender_receiver_never_selected(world):
    txn = make_txn(world)
    for seed in range(10_000):
        panel = select_witnesses(world, txn, SeededRng(seed))
        assert txn.sender not in panel
        assert txn.receiver not in panel


def test_selection_reputation_ratio():
    world = mini_world(panel__k=1)
    txn = make_txn(world)
    eligible = [p for p in world.active_devices()
                if p not in (txn.sender, txn.receiver)]
    heavy, light = eligible[0], eligible[1]
    for other in eligible:
        world.set_score(other, 0.0)
    world.set_score(heavy, 0.9)
    world.set_score(light, 0.3)
    rng = SeededRng(77)
    hits = 0
    draws = 100_000
    for _ in range(draws):
        if select_witnesses(world, txn, rng) == [heavy]:
            hits += 1
    ratio = hits / (draws - hits)
    assert abs(ratio - 3.0) < 0.15


def test_selection_diversity_cap():
    world = mini_world(operator_groups=2, panel__diversity=3)
    txn = make_txn(world)
    for seed in range(200):
        panel = select_witnesses(world, txn, SeededRng(seed))
        groups = [world.devices[p].operator_group for p in panel]
        assert max(groups.count(g) for g in set(groups)) <= 3


def test_selection_diversity_capacity_shortfall():
    # two groups at diversity 1 can seat at most two witnesses; k=5 must fail
    world = mini_world(operator_groups=2)
    txn = make_txn(world)
    with pytest.raises(InsufficientWitnesses):
        select_witnesses(world, txn, SeededRng(6))


def test_selection_insufficient_witnesses(world):
    txn = make_txn(world)
    for pub in world.active_devices():
        if pub not in (txn.sender, txn.receiver):
            world.set_status(pub, transmission.DeviceStatus.QUARANTINED)
    with pytest.raises(InsufficientWitnesses):
        select_witnesses(world, txn, SeededRng(7))


def test_unseatable_panel_fails_before_reading_weights(world):
    # a retry that cannot seat a panel is refused from the cached seat
    # counts alone: no score is read and no random number drawn
    txn = make_txn(world)
    others = [p for p in world.active_devices()
              if p not in (txn.sender, txn.receiver)]
    exclude = frozenset(others[world.cfg.panel.k - 1:])
    world.reputation_accounts = {}
    with pytest.raises(InsufficientWitnesses):
        select_witnesses(world, txn, None, exclude)


def _k_pass_select(world, txn, rng, exclude=frozenset()):
    """Reference panel draw: one filtered pass over the candidates per seat."""
    cfg = world.cfg.panel
    candidates = [pub for pub, profile in world.devices.items()
                  if profile.status is transmission.DeviceStatus.ACTIVE
                  and pub not in (txn.sender, txn.receiver)
                  and pub not in exclude]
    weights = {pub: world.reputation_accounts[pub].score for pub in candidates}
    groups = {pub: world.devices[pub].operator_group for pub in candidates}
    per_group = {}
    for pub in candidates:
        if weights[pub] > 0:
            per_group[groups[pub]] = per_group.get(groups[pub], 0) + 1
    if sum(min(n, cfg.diversity) for n in per_group.values()) < cfg.k:
        raise InsufficientWitnesses("capacity")
    panel = []
    group_use = {}
    remaining = list(candidates)
    while len(panel) < cfg.k:
        pool = [p for p in remaining
                if group_use.get(groups[p], 0) < cfg.diversity and weights[p] > 0]
        if not pool:
            raise InsufficientWitnesses("pool exhausted")
        total = sum(weights[p] for p in pool)
        x = rng.random() * total
        acc = 0.0
        chosen = pool[-1]
        for p in pool:
            acc += weights[p]
            if x < acc:
                chosen = p
                break
        panel.append(chosen)
        group_use[groups[chosen]] = group_use.get(groups[chosen], 0) + 1
        remaining.remove(chosen)
    return panel


def test_select_witnesses_matches_k_pass_reference():
    world = mini_world(n_witness_pool=24)
    txn = make_txn(world)
    gen = SeededRng(2024)
    devices = list(world.devices)
    statuses = list(transmission.DeviceStatus)
    outcomes = set()

    def draw_matches_reference(exclude):
        seed = gen.next_u64()
        try:
            expected = _k_pass_select(world, txn, SeededRng(seed), exclude)
        except InsufficientWitnesses:
            with pytest.raises(InsufficientWitnesses):
                select_witnesses(world, txn, SeededRng(seed), exclude)
            return "raised"
        assert select_witnesses(world, txn, SeededRng(seed), exclude) == expected
        return "panel"

    for case in range(400):
        world.group_members = {}
        for pub in devices:
            world.reputation_accounts[pub].score = (
                0.0 if gen.bernoulli(0.25) else gen.random())
            # groups never change in a run; a device is regrouped while out
            # of ACTIVE, so the world's kept group counts stay exact, and the
            # group index that onboarding fills is refilled to match
            world.set_status(pub, transmission.DeviceStatus.QUARANTINED)
            world.devices[pub].operator_group = f"g{gen.below(1 + case % 9)}"
            world.group_members.setdefault(
                world.devices[pub].operator_group, []).append(pub)
            world.set_status(pub, transmission.DeviceStatus.QUARANTINED
                             if gen.bernoulli(0.1)
                             else transmission.DeviceStatus.ACTIVE)
        world.cfg.panel.k = 1 + gen.below(6)
        world.cfg.panel.diversity = 1 + gen.below(3)
        exclude = frozenset(p for p in devices if gen.bernoulli(0.2))
        outcomes.add(draw_matches_reference(exclude))
        # statuses change on the same world between draws, re-activation too
        for pub in devices:
            if gen.bernoulli(0.2):
                world.set_status(pub, gen.choice(statuses))
        outcomes.add(draw_matches_reference(exclude))
    assert outcomes == {"panel", "raised"}


def test_commit_happy_and_hidden(world):
    txn = make_txn(world)
    open_panel(world, txn, SeededRng(8))
    witness = txn.panel[0]
    salt = b"\x01" * 16
    att = witness_commit(world, witness, txn, Verdict.VALID, salt)
    assert att.commit == make_commit(Verdict.VALID, salt)
    assert att.revealed_verdict is None
    assert att.salt is None  # verdict hidden until reveal


def test_double_commit_rejected(world):
    txn = make_txn(world)
    open_panel(world, txn, SeededRng(9))
    witness = txn.panel[0]
    witness_commit(world, witness, txn, Verdict.VALID, b"\x01" * 16)
    with pytest.raises(AlreadyCommitted):
        witness_commit(world, witness, txn, Verdict.VALID, b"\x02" * 16)


def test_non_panel_commit_rejected(world):
    txn = make_txn(world)
    open_panel(world, txn, SeededRng(10))
    outsider = next(p for p in world.active_devices() if p not in txn.panel
                    and p not in (txn.sender, txn.receiver))
    with pytest.raises(NotOnPanel):
        witness_commit(world, outsider, txn, Verdict.VALID, b"\x03" * 16)


def test_reveal_too_early(world):
    txn = make_txn(world)
    open_panel(world, txn, SeededRng(11))
    witness = txn.panel[0]
    salt = b"\x04" * 16
    witness_commit(world, witness, txn, Verdict.VALID, salt)
    # not all commits in, deadline not passed
    with pytest.raises(RevealTooEarly):
        witness_reveal(world, witness, txn, Verdict.VALID, salt)


def test_reveal_after_all_commits(world):
    txn = make_txn(world)
    open_panel(world, txn, SeededRng(12))
    salts = commit_all(world, txn)
    for witness, (verdict, salt) in salts.items():
        att = witness_reveal(world, witness, txn, verdict, salt)
        assert att.revealed_verdict is verdict


def test_reveal_after_deadline_without_all_commits(world):
    txn = make_txn(world)
    open_panel(world, txn, SeededRng(13))
    witness = txn.panel[0]
    salt = b"\x05" * 16
    witness_commit(world, witness, txn, Verdict.INVALID, salt)
    world.tick = txn.reveal_deadline_tick
    att = witness_reveal(world, witness, txn, Verdict.INVALID, salt)
    assert att.revealed_verdict is Verdict.INVALID


def test_equivocation_penalized(world):
    txn = make_txn(world)
    open_panel(world, txn, SeededRng(14))
    salts = commit_all(world, txn)
    witness = txn.panel[0]
    _, salt = salts[witness]
    before = world.reputation_accounts[witness].score
    with pytest.raises(CommitMismatch):
        witness_reveal(world, witness, txn, Verdict.INVALID, salt)
    att = txn.attestations[witness]
    assert att.equivocated
    assert world.reputation_accounts[witness].score < before
    penalty_events = [ev for ev in world.log if ev.kind == "incentive"
                      and ev.subject == witness.hex()
                      and ev.detail["cause"].startswith("equivocation:")]
    assert penalty_events


def _aggregate_with_pattern(world, txn, pattern):
    """pattern: per-seat 'valid' / 'invalid' / 'missing' / 'equivocate'."""
    open_panel(world, txn, SeededRng(1000 + len(pattern)))
    salts = commit_all(
        world, txn,
        verdicts={w: (Verdict.VALID if p != "invalid" else Verdict.INVALID)
                  for w, p in zip(txn.panel, pattern)})
    for witness, kind in zip(txn.panel, pattern):
        verdict, salt = salts[witness]
        if kind == "missing":
            continue
        if kind == "equivocate":
            flipped = (Verdict.INVALID if verdict is Verdict.VALID
                       else Verdict.VALID)
            with pytest.raises(CommitMismatch):
                witness_reveal(world, witness, txn, flipped, salt)
            continue
        witness_reveal(world, witness, txn, verdict, salt)
    world.tick = max(world.tick, txn.reveal_deadline_tick)
    return aggregate_attestations(world, txn)


def test_aggregate_all_valid(world):
    txn = make_txn(world)
    assert _aggregate_with_pattern(world, txn, ["valid"] * 5) is TxnStatus.WITNESSED


def test_aggregate_conflict_disputed(world):
    txn = make_txn(world)
    status = _aggregate_with_pattern(world, txn,
                                     ["valid", "valid", "valid",
                                      "invalid", "invalid"])
    assert status is TxnStatus.DISPUTED


def test_aggregate_rejected(world):
    txn = make_txn(world)
    status = _aggregate_with_pattern(world, txn,
                                     ["valid", "invalid", "invalid",
                                      "invalid", "invalid"])
    assert status is TxnStatus.REJECTED


def test_aggregate_missing_counts_invalid_with_penalty(world):
    txn = make_txn(world)
    status = _aggregate_with_pattern(world, txn,
                                     ["valid", "valid", "valid",
                                      "valid", "missing"])
    assert status is TxnStatus.WITNESSED
    lazy = [ev for ev in world.log if ev.kind == "incentive"
            and ev.detail["cause"].startswith("lazy_witness:")]
    assert len(lazy) == 1


def test_aggregate_exhaustive_vs_oracle(world):
    # all 2^5 reveal patterns against the brute-force rule oracle
    quorum = world.cfg.panel.effective_quorum()
    for bits in itertools.product(["valid", "invalid"], repeat=5):
        txn = make_txn(world)
        status = _aggregate_with_pattern(world, txn, list(bits))
        assert status.value == aggregation_oracle(list(bits), quorum)


def test_escalation_fresh_disjoint_panel(world):
    for seed in range(50):
        w = mini_world(seed=seed, n_witness_pool=12)
        txn = make_txn(w)
        _aggregate_with_pattern(w, txn, ["valid", "valid", "valid",
                                         "invalid", "invalid"])
        first_panel = set(txn.panel)
        assert transmission.reescalate_disputed(w, txn, SeededRng(seed)) \
            is True
        assert set(txn.panel).isdisjoint(first_panel)
        assert txn.status is TxnStatus.PENDING


def test_escalation_cap_opens_dispute(world):
    txn = make_txn(world)
    _aggregate_with_pattern(world, txn, ["valid", "valid", "valid",
                                         "invalid", "invalid"])
    txn.escalations = world.cfg.panel.max_escalations
    before = len(world.log)
    assert transmission.reescalate_disputed(world, txn, SeededRng(15)) is False
    opened = world.log[len(world.log) - 1]
    assert (opened.kind, opened.subject) == ("dispute_opened_from_txn",
                                             txn.id.hex())
    assert opened.detail["dispute"] in world.disputes
    # the claim cites the txn's last eight events logged before the hand-off
    txn_refs = [ref for ref in range(before)
                if world.log[ref].subject == txn.id.hex()]
    assert len(txn_refs) > 8
    claim = world.disputes[opened.detail["dispute"]].claim
    assert claim["event_refs"] == txn_refs[-8:]


def test_escalation_cap_skips_dispute_against_banned_sender(world):
    # a sender banned before its txn reaches the cap cannot be a dispute
    # party: the txn stays Disputed, no dispute opens and the log says why
    txn = make_txn(world)
    _aggregate_with_pattern(world, txn, ["valid", "valid", "valid",
                                         "invalid", "invalid"])
    incentives.apply_penalty(world, txn.sender, incentives.Severity.CRITICAL,
                             cause="test")
    assert world.devices[txn.sender].status is transmission.DeviceStatus.BANNED
    txn.escalations = world.cfg.panel.max_escalations
    before = len(world.log)
    assert transmission.reescalate_disputed(world, txn, SeededRng(15)) is False
    assert txn.status is TxnStatus.DISPUTED
    assert world.disputes == {}
    assert [(e.kind, e.subject, e.detail["accused"])
            for e in (world.log[i] for i in range(before, len(world.log)))] \
        == [("dispute_skipped", txn.id.hex(), txn.sender.hex())]


def _evaluated(world, txn) -> dict:
    """Run ``evaluate_witnesses``; map each witness it settled to the cause
    of the incentive the log records for it: ``attestation`` for a reward,
    ``wrong_verdict`` for a penalty."""
    mark = len(world.log)
    assert transmission.evaluate_witnesses(world, txn) is None
    tag = ":" + txn.id.hex()[:16]
    return {bytes.fromhex(ev.subject): ev.detail["cause"][:-len(tag)]
            for ev in list(world.log)[mark:]
            if ev.kind == "incentive" and ev.detail["cause"].endswith(tag)}


def test_evaluate_all_honest_committed(world):
    txn = make_txn(world)
    _aggregate_with_pattern(world, txn, ["valid"] * 5)
    txn.status = TxnStatus.COMMITTED
    assert _evaluated(world, txn) == dict.fromkeys(txn.panel, "attestation")


def test_evaluate_one_liar(world):
    txn = make_txn(world)
    _aggregate_with_pattern(world, txn, ["valid", "valid", "valid",
                                         "valid", "invalid"])
    txn.status = TxnStatus.COMMITTED
    results = _evaluated(world, txn)
    liar = txn.panel[4]
    assert results == {**dict.fromkeys(txn.panel[:4], "attestation"),
                       liar: "wrong_verdict"}


def test_evaluate_equivocator_already_penalized(world):
    txn = make_txn(world)
    _aggregate_with_pattern(world, txn, ["valid", "valid", "valid",
                                         "valid", "equivocate"])
    txn.status = TxnStatus.COMMITTED
    mark = len(world.log)
    results = _evaluated(world, txn)
    assert txn.panel[4] not in results and len(results) == 4
    assert not any(ev.actor == txn.panel[4].hex()
                   for ev in list(world.log)[mark:])


def test_commit_binding_invariant_replayable(world):
    # every accepted attestation satisfies digest(verdict||salt) == commit
    txn = make_txn(world)
    _aggregate_with_pattern(world, txn, ["valid", "valid", "invalid",
                                         "valid", "valid"])
    for att in txn.attestations.values():
        if att.revealed_verdict is not None and not att.equivocated:
            assert make_commit(att.revealed_verdict, att.salt) == att.commit


def test_aggregate_invariant_to_reveal_order(world):
    # the same verdict set revealed in two different orders must resolve
    # identically (attestation collection is order-independent)
    def run(order):
        w = mini_world(seed=555)
        senders = w.sender_pool()
        txn = submit_transaction(w, senders[0], senders[1], digest(b"x"))
        open_panel(w, txn, SeededRng(900))
        verdicts = {}
        for i, witness in enumerate(txn.panel):
            verdicts[witness] = Verdict.VALID if i < 3 else Verdict.INVALID
        salts = commit_all(w, txn, verdicts=verdicts)
        for witness in order(txn.panel):
            v, s = salts[witness]
            witness_reveal(w, witness, txn, v, s)
        w.tick = txn.reveal_deadline_tick
        return aggregate_attestations(w, txn)

    forward = run(lambda panel: list(panel))
    backward = run(lambda panel: list(reversed(panel)))
    assert forward == backward


def test_witness_deep_flag_objection_path():
    # a deep-flagged honest witness whose Invalid verdict lost to the
    # aggregate raises a formal objection on the transaction
    from gdpsim.config import AdversarySpec
    from gdpsim.scenarios import get_scenario
    from gdpsim.world import run_world
    cfg = get_scenario("collusion_at_quorum")
    cfg.inspection.rate_witness_deep = 1.0
    cfg.duration_ticks = 80
    cfg.drain_ticks = 30
    world = run_world(cfg)
    objections = [e for e in world.log if e.kind == "objection"]
    assert objections
    for ev in objections:
        txn = world.transactions[bytes.fromhex(ev.subject)]
        att = txn.attestations[bytes.fromhex(ev.actor)]
        assert att.revealed_verdict is Verdict.INVALID


def _reference_witness_deep_flags(world, txn):
    """Deep scrutiny in the reference order: a draw for every panel seat,
    then the attestation checks."""
    rate = world.cfg.inspection.rate_witness_deep
    if rate <= 0:
        return
    for witness in txn.panel:
        if not stochastic.should_inspect(world.rng_inspection, rate,
                                         "wdeep", txn.id, witness):
            continue
        att = txn.attestations.get(witness)
        if att is None or att.revealed_verdict is None or att.equivocated:
            continue
        rederived = world.actors[witness].witness_verdict(world, txn)
        if rederived is Verdict.INVALID and att.revealed_verdict is Verdict.INVALID:
            txn.objected = True
            world.log.append(world.tick, "objection", actor=witness.hex(),
                             subject=txn.id.hex())


def _deep_scrutiny_run(monkeypatch, reference: bool):
    """``collusion_at_quorum`` with deep scrutiny at p=0.5 (no built-in
    logs an objection at its own rates); returns the world and, per
    ``"wdeep"`` draw, the attestation it named at the time of the draw."""
    cfg = get_scenario("collusion_at_quorum")
    cfg.inspection.rate_witness_deep = 0.5
    cfg.duration_ticks = 80
    world = world_mod.build_world(cfg)
    drawn = []
    real = stochastic.should_inspect

    def recording(rng, rate, *key_parts):
        if key_parts[0] == "wdeep":
            txn_id, witness = key_parts[1:]
            drawn.append(world.transactions[txn_id].attestations.get(witness))
        return real(rng, rate, *key_parts)

    with monkeypatch.context() as patch:
        patch.setattr(stochastic, "should_inspect", recording)
        if reference:
            patch.setattr(world_mod, "_witness_deep_flags",
                          _reference_witness_deep_flags)
        for _ in range(cfg.duration_ticks):
            world_mod.step(world)
    return world, drawn


def test_deep_flags_draw_only_for_witnesses_that_can_object(monkeypatch):
    """Only a witness that revealed Invalid without equivocating can
    object, so deep scrutiny draws only for such a witness, and the log is
    the one that drawing for every panel seat writes: each draw is keyed by
    its target, and ``witness_verdict`` is pure."""
    world, drawn = _deep_scrutiny_run(monkeypatch, reference=False)
    reference, ref_drawn = _deep_scrutiny_run(monkeypatch, reference=True)
    assert any(e.kind == "objection" for e in world.log)
    assert [encode_event(e) for e in world.log] == \
        [encode_event(e) for e in reference.log]
    assert drawn and len(drawn) < len(ref_drawn)
    for att in drawn:
        assert att is not None and not att.equivocated
        assert att.revealed_verdict is Verdict.INVALID


def test_witness_seats_hold_no_signature_objects():
    """A witness's attestation is signed by construction and holds no
    ``Signature``, so after a run the only ones left on the heap are those
    of the votes and proposals the world still holds. The run is the
    benchmark's criterion-1 sweep shape at seed 0: 2,720 txns and 13,600
    attestations."""
    import gc

    from gdpsim.consensus import Proposal, Vote
    from gdpsim.primitives import Signature
    from gdpsim.world import run_world

    cfg = get_scenario("collusion_below_quorum")
    cfg.seed = 0
    cfg.txn_arrival_rate = 8.0
    cfg.duration_ticks, cfg.drain_ticks = 400, 60
    gc.collect()
    before = sum(1 for o in gc.get_objects() if type(o) is Signature)
    world = run_world(cfg)
    gc.collect()
    heap = gc.get_objects()
    signatures = sum(1 for o in heap if type(o) is Signature) - before
    held = {id(o.signature) for o in heap if type(o) in (Vote, Proposal)}
    attestations = sum(len(txn.attestations)
                       for txn in world.transactions.values())
    assert attestations > 10_000
    assert 0 < signatures <= len(held)
