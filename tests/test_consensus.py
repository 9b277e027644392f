import dataclasses
import itertools
import json

import pytest

from gdpsim import consensus, scenarios, transmission
from gdpsim import world as world_mod
from gdpsim.config import AdversarySpec, OutageSpec
from gdpsim.consensus import (
    Vote,
    cast_vote,
    commit_block,
    current_proposer,
    honest_accept,
    propose_block,
    synchronize,
    tally,
    validate_proposal,
    verify_chain,
    vote_message,
    vote_weight,
)
from gdpsim.errors import (
    ChainIntegrityViolation,
    EmptyMempool,
    NotProposer,
)
from gdpsim.events import encode_event, write_log
from gdpsim.primitives import (
    SeededRng,
    Signature,
    ZERO_DIGEST,
    digest,
    generate_keypair,
    sign,
)
from gdpsim.transmission import TxnStatus, Verdict

from conftest import (
    count_ed25519_verifies,
    mini_cfg,
    mini_world,
    record_signature_reads,
)


def witness_and_pool(world, n=3, sender_idx=0, receiver_idx=1):
    """Create n fully witnessed transactions and put them in the mempool."""
    senders = world.sender_pool()
    ids = []
    for i in range(n):
        txn = transmission.submit_transaction(
            world, senders[sender_idx], senders[receiver_idx],
            digest(b"payload-%d" % i))
        transmission.open_panel(world, txn, world.rng_selection.derive("t", i))
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
        world.mempool.append(txn.id)
        ids.append(txn.id)
    return ids


def signed_proposal(world, proposer, ids, parent, tick, signer=None):
    """A proposal signed over its digest, by default under the proposer's
    own key."""
    keys = world.actors[signer or proposer].keypair
    message = consensus.proposal_digest(proposer, tuple(ids), parent, tick)
    return consensus.Proposal(proposer=proposer, txn_ids=tuple(ids),
                              parent_block=parent, tick=tick,
                              signature=sign(keys, message))


def test_propose_creation_order(world):
    ids = witness_and_pool(world, 3)
    proposer = current_proposer(world)
    proposal = propose_block(world, proposer)
    assert list(proposal.txn_ids) == ids  # oldest first, nonce order


def test_propose_batch_cap(world):
    witness_and_pool(world, 40)
    proposer = current_proposer(world)
    proposal = propose_block(world, proposer)
    assert len(proposal.txn_ids) == world.cfg.consensus.batch_cap


def test_propose_not_proposer(world):
    witness_and_pool(world, 1)
    others = [n for n in world.active_devices()
              if n != current_proposer(world)]
    with pytest.raises(NotProposer):
        propose_block(world, others[0])


def test_propose_empty_mempool(world):
    with pytest.raises(EmptyMempool):
        propose_block(world, current_proposer(world))


def test_validate_accepts_valid(world):
    witness_and_pool(world, 2)
    proposer = current_proposer(world)
    proposal = propose_block(world, proposer)
    node = next(n for n in world.active_devices() if n != proposer)
    vote = validate_proposal(world, node, proposal)
    assert vote.accept


def test_validate_rejects_committed_replay(world):
    ids = witness_and_pool(world, 2)
    proposer = current_proposer(world)
    proposal = propose_block(world, proposer)
    votes = [validate_proposal(world, n, proposal)
             for n in world.active_devices() if n != proposer]
    total = sum(v.weight for v in votes)
    block = commit_block(world, proposal, votes, total)
    assert block is not None
    # re-propose the same ids: a double spend any validator must reject
    replay = signed_proposal(world, proposer, ids, world.canonical.head,
                             world.tick)
    node = next(n for n in world.active_devices() if n != proposer)
    assert not honest_accept(world, node, replay)


def test_validate_rejects_nonce_gap(world):
    # independent oracle: expected nonces replayed from the ledger say the
    # sequence 0 then 2 has a gap at 1
    ids = witness_and_pool(world, 3)
    gap_ids = (ids[0], ids[2])
    txns = [world.transactions[t] for t in gap_ids]
    assert [t.nonce for t in txns] == [0, 2]
    proposer = current_proposer(world)
    proposal = signed_proposal(world, proposer, gap_ids, world.canonical.head,
                               world.tick)
    node = next(n for n in world.active_devices() if n != proposer)
    assert not honest_accept(world, node, proposal)


def test_validate_rejects_proposal_not_signed_by_proposer(world):
    witness_and_pool(world, 2)
    proposer = current_proposer(world)
    proposal = propose_block(world, proposer)
    node, other = [n for n in world.active_devices()
                   if n != proposer][:2]
    assert validate_proposal(world, node, proposal).accept
    # the right digest, signed under another node's key
    foreign = signed_proposal(world, proposer, proposal.txn_ids,
                              proposal.parent_block, proposal.tick,
                              signer=other)
    assert not validate_proposal(world, node, foreign).accept
    # a genuine signature, but the proposer swapped after signing
    swapped = dataclasses.replace(proposal, proposer=other)
    assert not validate_proposal(world, node, swapped).accept


def test_a_round_hashes_each_proposal_once(monkeypatch):
    """A round of 16 validators hashes its proposal once, when it is
    signed: every later read of ``digest`` is the cached one. A
    ``dataclasses.replace`` copy hashes its own fields. It weighs each
    validator once, for both the total and the vote."""
    world = mini_world(n_honest_devices=3, n_witness_pool=14)
    witness_and_pool(world, 2)
    calls, proposals, weighed = [], [], []
    real_digest, real_propose = consensus.proposal_digest, consensus.propose_block
    real_weight = consensus.vote_weight

    def counted_weight(world, node, *args):
        weighed.append(node)
        return real_weight(world, node, *args)

    def counted(*args):
        calls.append(args)
        return real_digest(*args)

    def kept(*args):
        proposals.append(real_propose(*args))
        return proposals[-1]

    monkeypatch.setattr(consensus, "proposal_digest", counted)
    monkeypatch.setattr(consensus, "propose_block", kept)
    monkeypatch.setattr(consensus, "vote_weight", counted_weight)
    world_mod._consensus_round(world)
    voters = [bytes.fromhex(e.actor) for e in world.log if e.kind == "vote"]
    assert len(voters) == 16 and weighed == voters
    assert len(calls) == 1
    proposal, = proposals
    fields = (proposal.proposer, proposal.txn_ids, proposal.parent_block,
              proposal.tick)
    assert proposal.digest == real_digest(*fields)
    later = dataclasses.replace(proposal, tick=proposal.tick + 1)
    assert later.digest == real_digest(*fields[:3], proposal.tick + 1)
    assert later.digest != proposal.digest and len(calls) == 2


def _lagging_forged_sync():
    """``forged_sync`` with three forgers that no sync inspection catches
    and eight staggered outages: peers coming back from an outage stay
    behind after a forged batch, and vote in rounds at their own height."""
    cfg = scenarios.get_scenario("forged_sync")
    cfg.adversaries = [AdversarySpec(kind="forged_sync_node", count=3)]
    cfg.outages = [OutageSpec(device_index=i, start=30 + 9 * i, duration=25)
                   for i in range(8)]
    cfg.inspection.rate_sync_verify = 0.0
    cfg.duration_ticks = 200
    return cfg


def _checked_run(monkeypatch, cfg, reference: bool):
    """Run ``cfg``; return the world, the (round, height) of every check
    of a proposal's transactions, and, per round, the heights at which
    validators entered ``honest_accept``. The reference checks the
    transactions once per validator, as ``honest_accept`` does without a
    memo."""
    world = world_mod.build_world(cfg)
    checked, entered = [], {}
    real_check, real_accept = consensus._txns_acceptable, consensus.honest_accept

    def counted(world, proposal, height):
        checked.append((world.round_no, height))
        return real_check(world, proposal, height)

    def entering(world, node, proposal, checks=None):
        entered.setdefault(world.round_no, set()).add(world.height(node))
        return real_accept(world, node, proposal,
                           None if reference else checks)

    with monkeypatch.context() as patch:
        patch.setattr(consensus, "_txns_acceptable", counted)
        patch.setattr(consensus, "honest_accept", entering)
        for _ in range(cfg.duration_ticks):
            world_mod.step(world)
    return world, checked, entered


@pytest.mark.parametrize("cfg, lagging", [
    (scenarios.get_scenario("forged_sync"), False),
    (_lagging_forged_sync(), True),
], ids=["forged_sync", "lagging"])
def test_round_checks_txns_once_per_height(monkeypatch, cfg, lagging):
    """A round checks its proposal's transactions once per validator
    height, and logs what checking them for every validator logs. Only
    validators whose head is the proposal's parent reach the check, and
    the parent fixes their height, so each round checks once."""
    world, checked, entered = _checked_run(monkeypatch, cfg, reference=False)
    reference, ref_checked, _ = _checked_run(monkeypatch, cfg, reference=True)
    assert [encode_event(e) for e in world.log] == \
        [encode_event(e) for e in reference.log]
    assert sorted(checked) == sorted(set(ref_checked))
    assert len(ref_checked) > 2 * len(checked)
    assert any(len(heights) > 1 for heights in entered.values()) == lagging


class _FaultyPick:
    """A proposer's pick that slips one bad transaction into a proposal,
    round by round in the cycle of ``KINDS``: an honest round, then one of
    the four faults ``_txns_acceptable`` refuses, each met first by its own
    check.

    - ``replayed``: the last committed transaction again;
    - ``unwitnessed``: a transaction whose panel has not yet aggregated;
    - ``unquorate``: a copy of a picked transaction, Witnessed in status
      but with no Valid reveal behind it. No run makes one, so the pick
      registers it;
    - ``gapped``: the honest pick without a sender's first transaction,
      when it holds two of that sender's.

    A kind with no material this round leaves the pick honest.
    ``by_digest`` maps each proposal digest (hex) to its kind, None when
    honest."""

    KINDS = (None, "replayed", "unwitnessed", "unquorate", "gapped")

    def __init__(self):
        self.honest = consensus._chainable
        self.propose = consensus.propose_block
        self.kind = None
        self.by_digest = {}

    def pick(self, world, watermark, ordered, cap):
        chosen = self.honest(world, watermark, ordered, cap)
        kind = self.KINDS[world.round_no % len(self.KINDS)]
        bad = self._bad(world, kind, chosen) if chosen else None
        self.kind = kind if bad is not None else None
        return chosen if bad is None else bad

    def propose_block(self, world, node):
        proposal = self.propose(world, node)
        self.by_digest[proposal.digest.hex()] = self.kind
        return proposal

    def _bad(self, world, kind, chosen):
        txns = world.transactions
        if kind == "replayed":
            return next(([*chosen, tid] for block in world.canonical.blocks[::-1]
                         for tid in block.txn_ids if tid in txns), None)
        if kind == "unwitnessed":
            return next(([*chosen, tid] for tid, txn in reversed(txns.items())
                         if txn.status is TxnStatus.PENDING), None)
        if kind == "unquorate":
            base = txns[chosen[-1]]
            if base.status is not TxnStatus.WITNESSED:
                return None
            fake = digest(base.id + b"unquorate")
            txns.setdefault(fake, dataclasses.replace(base, id=fake,
                                                      attestations={}))
            return [*chosen, fake]
        if kind == "gapped":
            senders = [txns[t].sender if t in txns else None for t in chosen]
            for i, sender in enumerate(senders):
                if sender is not None and sender in senders[i + 1:]:
                    return chosen[:i] + chosen[i + 1:]
        return None


def test_round_rejects_a_faulty_proposal_once_per_height(monkeypatch):
    """Honest validators refuse every faulty proposal of a whole run, and
    the round's memo reaches the verdicts that checking for each validator
    reaches: the same log, one check per (round, height)."""
    cfg = mini_cfg(txn_arrival_rate=2.0, duration_ticks=150)
    runs = []
    for reference in (False, True):
        faulty = _FaultyPick()
        with monkeypatch.context() as patch:
            patch.setattr(consensus, "_chainable", faulty.pick)
            patch.setattr(consensus, "propose_block", faulty.propose_block)
            runs.append((faulty, *_checked_run(monkeypatch, cfg, reference)))
    (faulty, world, checked, _), (_, reference, ref_checked, _) = runs
    assert [encode_event(e) for e in world.log] == \
        [encode_event(e) for e in reference.log]
    assert sorted(checked) == sorted(set(ref_checked))
    accepts = {}
    for ev in world.log:
        if ev.kind == "vote":
            kind = faulty.by_digest[ev.subject]
            accepts.setdefault(kind, []).append(ev.detail["accept"])
    assert set(accepts) == set(_FaultyPick.KINDS)
    assert any(accepts.pop(None))
    assert not any(itertools.chain(*accepts.values()))


def test_contested_escalation_seats_a_fresh_panel_in_a_whole_run(monkeypatch):
    """A super-majority threshold puts every near-unanimous vote in the
    contested band, and full deep scrutiny lets the one honest witness on
    a colluding panel object. A block that lands then escalates its
    objected transactions instead of committing them: a fresh panel,
    disjoint from the earlier ones, runs its commit phase in the same tick,
    or the transaction goes to arbitration."""
    cfg = scenarios.get_scenario("collusion_at_quorum")
    cfg.seed = 2
    cfg.n_witness_pool = 3
    cfg.adversaries = [
        AdversarySpec(kind="tampering_sender", count=1,
                      params={"tamper_rate": 1.0}),
        AdversarySpec(kind="colluding_witnesses", count=8),
    ]
    cfg.inspection.rate_witness_deep = 1.0
    cfg.consensus.commit_threshold = 0.95
    escalations = []
    resolve = consensus.resolve_vote_conflict

    def recorded(world, *args):
        mark = len(world.log)
        escalated = resolve(world, *args)
        escalations.extend((world.tick, mark, tid) for tid in escalated)
        return escalated

    monkeypatch.setattr(consensus, "resolve_vote_conflict", recorded)
    world = world_mod.run_world(cfg)
    assert escalations
    seated = arbitrated = 0
    for tick, mark, tid in escalations:
        mine = [ev for ev in world.log if ev.subject == tid.hex()]
        later = [ev for ev in list(world.log)[mark:]
                 if ev.tick == tick and ev.subject == tid.hex()]
        if later[0].kind == "dispute_opened_from_txn":
            arbitrated += 1
            continue
        selected, escalated, *rest = later
        assert (selected.kind, escalated.kind) == ("panel_selected",
                                                   "txn_escalated")
        panel = selected.detail["witnesses"]
        earlier = {w for ev in mine[:mine.index(selected)]
                   if ev.kind == "panel_selected"
                   for w in ev.detail["witnesses"]}
        assert earlier and earlier.isdisjoint(panel)
        assert [ev.actor for ev in rest[:len(panel)]
                if ev.kind == "attestation_commit"] == panel
        seated += 1
    assert seated and arbitrated


def test_each_round_checks_txns_afresh(monkeypatch):
    """A round's verdict on its transactions is made in that round: after
    a round whose block never lands, the next round at the same height
    checks the new proposal against the state as it is then."""
    world = mini_world(inspection__max_commit_delay=1000,
                       inspection__rate_proposer_challenge=0.0)
    witness_and_pool(world, 1)
    checked = []
    real_check = consensus._txns_acceptable

    def counted(world, proposal, height):
        checked.append(height)
        return real_check(world, proposal, height)

    def accepts():
        return [e.detail["accept"] for e in world.log if e.kind == "vote"]

    monkeypatch.setattr(consensus, "_txns_acceptable", counted)
    world_mod._consensus_round(world)
    first = accepts()
    assert first and all(first)
    world.pending_block = None  # the block never lands
    txn = world.transactions[world.mempool[0]]
    for witness, att in list(txn.attestations.items()):
        txn.attestations[witness] = dataclasses.replace(att, equivocated=True)
    world_mod._consensus_round(world)
    assert not any(accepts()[len(first):])
    assert checked == [0, 0]


def test_blocks_share_one_recipients_list_until_the_active_set_changes(
        monkeypatch, tmp_path):
    """Consecutive blocks with no status flip between them log the same
    ``recipients`` list object, the active devices' hexes; a flip makes a
    new one. ``events.jsonl`` still holds one ``json.dumps`` per event."""
    commits = []
    real = consensus.commit_block

    def recording(world, *args):
        seen = (world.status_version, [world.hexes[p] for p in world.active])
        block = real(world, *args)
        if block is not None:
            commits.append(seen)
        return block

    monkeypatch.setattr(consensus, "commit_block", recording)
    world = world_mod.run_world(
        scenarios.get_scenario("collusion_below_quorum"))
    _, kinds, _, _, details = world.log.columns()
    lists = [detail["recipients"] for kind, detail in zip(kinds, details)
             if kind == "block_committed"]
    assert len(lists) == len(commits)
    assert [names for _, names in commits] == lists
    versions = [version for version, _ in commits]
    for i in range(1, len(lists)):
        assert (lists[i] is lists[i - 1]) == (versions[i] == versions[i - 1])
    assert 1 < len({id(names) for names in lists}) < len(lists)
    write_log(world.log, tmp_path)
    assert (tmp_path / "events.jsonl").read_text() == "".join(
        json.dumps({"tick": ev.tick, "kind": ev.kind, "actor": ev.actor,
                    "subject": ev.subject, "detail": ev.detail},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for ev in world.log)


def test_commit_majority_three_of_five(world):
    # a validation round of exactly five equal-weight validators
    witness_and_pool(world, 1)
    proposer = current_proposer(world)
    proposal = propose_block(world, proposer)
    validators = [n for n in world.active_devices() if n != proposer][:5]
    votes = [cast_vote(world, n, proposal, accept=(i < 3))
             for i, n in enumerate(validators)]
    w = votes[0].weight
    assert all(abs(v.weight - w) < 1e-12 for v in votes)
    total = 5 * w
    accept_weight, ok = tally(votes, total, 0.5)
    assert ok and abs(accept_weight - 3 * w) < 1e-12
    block = commit_block(world, proposal, votes, total)
    assert block is not None
    assert world.transactions[proposal.txn_ids[0]].status is TxnStatus.COMMITTED


def test_commit_below_majority_rejected(world):
    ids = witness_and_pool(world, 1)
    proposer = current_proposer(world)
    proposal = propose_block(world, proposer)
    validators = [n for n in world.active_devices() if n != proposer][:5]
    votes = [cast_vote(world, n, proposal, accept=(i < 2))
             for i, n in enumerate(validators)]
    total = 5 * votes[0].weight
    block = commit_block(world, proposal, votes, total)
    assert block is None
    assert world.transactions[ids[0]].status is TxnStatus.WITNESSED


def test_weighted_commit_hand_oracle():
    # weights {3,1,1,1,1}: the heavy validator plus one other accepting
    # gives 4 of 7 total weight, which exceeds the strict majority of 3.5
    weights = [3.0, 1.0, 1.0, 1.0, 1.0]
    accepts = [True, True, False, False, False]
    votes = [Vote(validator=b"%d" % i, proposal_digest=b"p", accept=a,
                  weight=w, signature=None)
             for i, (w, a) in enumerate(zip(weights, accepts))]
    total = sum(weights)
    by_hand = sum(w for w, a in zip(weights, accepts) if a)
    accept_weight, ok = tally(votes, total, 0.5)
    assert accept_weight == by_hand == 4.0
    assert ok
    # flipping the heavy validator sinks it: 1+1+1 = 3 < 3.5
    votes2 = [Vote(validator=b"%d" % i, proposal_digest=b"p", accept=not a
                   if i == 0 else a, weight=w, signature=None)
              for i, (w, a) in enumerate(zip(weights, accepts))]
    votes2[1] = Vote(validator=b"1", proposal_digest=b"p", accept=True,
                     weight=1.0, signature=None)
    accept_weight2, ok2 = tally(
        [v for v in votes2], total, 0.5)
    assert not ok2 or accept_weight2 > 3.5  # consistency of the rule


def test_exhaustive_vote_patterns_equal_weight():
    # all accept/reject patterns for five equal validators against the
    # strict-majority oracle
    for pattern in itertools.product([True, False], repeat=5):
        votes = [Vote(validator=b"%d" % i, proposal_digest=b"p", accept=a,
                      weight=1.0, signature=None)
                 for i, a in enumerate(pattern)]
        accept_weight, ok = tally(votes, 5.0, 0.5)
        assert ok == (sum(pattern) > 2.5)


def test_vote_weight_formula(world):
    # hand-recompute: 0.5*stake_share + 0.5*reputation
    node = world.active_devices()[0]
    total_stake = sum(a.staked for p, a in world.stake_accounts.items()
                      if world.devices[p].status.value == "Active")
    expected = 0.5 * world.stake_accounts[node].staked / total_stake \
        + 0.5 * world.reputation_accounts[node].score
    assert abs(vote_weight(world, node) - expected) < 1e-12


def _grow_chain(world, blocks=3):
    for i in range(blocks):
        witness_and_pool(world, 2, sender_idx=0, receiver_idx=1)
        proposer = current_proposer(world)
        proposal = propose_block(world, proposer)
        votes = [validate_proposal(world, n, proposal)
                 for n in world.active_devices() if n != proposer]
        total = sum(v.weight for v in votes)
        assert commit_block(world, proposal, votes, total) is not None
        world.round_no += 1
        world.mempool.clear()


def test_synchronize_adopts_missing_blocks(world):
    _grow_chain(world, 3)
    nodes = world.active_devices()
    a, b = nodes[0], nodes[1]
    # put b behind by lowering its height
    world.set_height(b, 1)
    assert synchronize(world, a, b) == 2
    assert world.height(b) == world.height(a)
    assert consensus.node_head(world, b) == consensus.node_head(world, a)


def test_synchronize_equal_heads_noop(world):
    _grow_chain(world, 1)
    nodes = world.active_devices()
    assert synchronize(world, nodes[0], nodes[1]) == 0


def test_synchronize_rejects_tampered_block(world):
    _grow_chain(world, 2)
    nodes = world.active_devices()
    a, b = nodes[0], nodes[1]
    world.set_height(b, 0)

    real = world.canonical.blocks
    forged_ids = tuple(digest(t + b"spoof") for t in real[1].txn_ids)
    forged = consensus.LedgerBlock(
        height=1, parent=real[1].parent, txn_ids=forged_ids,
        proposer=real[1].proposer, votes=real[1].votes,
        block_digest=real[1].block_digest,  # stale digest: content mismatch
        accept_weight=real[1].accept_weight, total_weight=real[1].total_weight,
        proposal_tick=real[1].proposal_tick)

    class ForgingServer:
        def serve_sync(self, world, from_height):
            return [forged] + real[2:]

    world.actors[a].serve_sync = ForgingServer().serve_sync
    before = world.height(b)
    with pytest.raises(ChainIntegrityViolation):
        synchronize(world, a, b)
    assert world.height(b) == before  # unchanged


def test_resync_does_not_reverify_vote_signatures(world, monkeypatch):
    _grow_chain(world, 3)
    a, b = world.active_devices()[:2]
    verified = count_ed25519_verifies(monkeypatch)
    read = record_signature_reads(monkeypatch)
    for _ in range(2):  # the first sync and a second one of the same blocks
        world.set_height(b, 0)
        assert synchronize(world, a, b) == 3
        assert verified == [] and read == {}
    # a vote signature read before the sync, or built from explicit bytes,
    # is still checked with Ed25519
    first, second = world.canonical.blocks[1].votes[:2]
    first.signature.sig
    explicit = Signature(sig=second.signature.sig, signer=second.signature.signer)
    world.canonical.blocks[1] = dataclasses.replace(
        world.canonical.blocks[1],
        votes=(first, dataclasses.replace(second, signature=explicit),
               *world.canonical.blocks[1].votes[2:]))
    read.clear()
    world.set_height(b, 0)
    assert synchronize(world, a, b) == 3
    assert verified == [vote_message(v.proposal_digest, v.accept, v.weight)
                        for v in (first, second)]
    assert set(read) == {id(first.signature), id(explicit)}


@pytest.mark.parametrize("forgery", ["weight", "signature", "foreign_key"])
def test_verify_chain_rejects_altered_votes(world, forgery):
    _grow_chain(world, 2)
    verify_chain(world, world.canonical.blocks)  # every genuine vote verified
    victim = world.canonical.blocks[1]
    first, second = victim.votes[0], victim.votes[1]
    if forgery == "weight":
        votes = (dataclasses.replace(first, weight=first.weight * 2),
                 *victim.votes[1:])
    elif forgery == "signature":
        votes = (dataclasses.replace(first, signature=second.signature),
                 dataclasses.replace(second, signature=first.signature),
                 *victim.votes[2:])
    else:  # the right message under another key, claimed for the validator
        forged = sign(generate_keypair(SeededRng(5)),
                      vote_message(first.proposal_digest, first.accept,
                                   first.weight))
        forged.signer = first.validator
        votes = (dataclasses.replace(first, signature=forged),
                 *victim.votes[1:])
    tampered = list(world.canonical.blocks)
    tampered[1] = dataclasses.replace(victim, votes=votes)
    with pytest.raises(ChainIntegrityViolation, match="forged vote"):
        verify_chain(world, tampered)


def test_lagging_node_judges_from_its_own_height(world):
    _grow_chain(world, 2)  # sender nonces 0-1 at height 1, 2-3 at height 2
    proposer, node = world.active_devices()[:2]
    world.set_height(node, 1)

    def on_block(height, ids):
        return signed_proposal(world, proposer, ids,
                               world.canonical.blocks[height].block_digest,
                               world.tick)

    above = world.canonical.blocks[2].txn_ids[0]
    assert not honest_accept(world, node, on_block(1, [above]))
    # a fresh nonce 2 chains on the node's watermark (1), not the tip's (3)
    world.next_nonce[world.transactions[above].sender] = 2
    [retry] = witness_and_pool(world, 1)
    assert retry != above and world.transactions[retry].nonce == 2
    assert honest_accept(world, node, on_block(1, [retry]))
    world.set_height(node, 2)
    assert not honest_accept(world, node, on_block(2, [retry]))


def test_verify_chain_replay(world):
    _grow_chain(world, 3)
    verify_chain(world, world.canonical.blocks)  # must not raise
    # mutate one block's recorded weight: replay must catch it
    tampered = list(world.canonical.blocks)
    victim = tampered[2]
    tampered[2] = consensus.LedgerBlock(
        height=victim.height, parent=victim.parent, txn_ids=victim.txn_ids,
        proposer=victim.proposer, votes=victim.votes,
        block_digest=victim.block_digest,
        accept_weight=victim.accept_weight + 1.0,
        total_weight=victim.total_weight, proposal_tick=victim.proposal_tick)
    with pytest.raises(ChainIntegrityViolation):
        verify_chain(world, tampered)


def test_genesis_shape(world):
    genesis = world.canonical.blocks[0]
    assert genesis.height == 0
    assert genesis.parent == ZERO_DIGEST
    assert genesis.txn_ids == ()


def _witnessed_with_minority_objection(world):
    """A transaction witnessed over the objection of one honest seat."""
    from gdpsim.consensus import resolve_vote_conflict
    ids = witness_and_pool(world, 1)
    txn = world.transactions[ids[0]]
    txn.objected = True
    return txn


def test_resolve_conflict_escalates_contested_disputed_txn():
    from gdpsim.consensus import resolve_vote_conflict
    world = mini_world(n_witness_pool=14)  # room for a disjoint fresh panel
    txn = _witnessed_with_minority_objection(world)
    proposer = current_proposer(world)
    proposal = propose_block(world, proposer)
    validators = [n for n in world.active_devices() if n != proposer][:4]
    # a 50/50 vote split sits inside the contested band around the threshold
    votes = [cast_vote(world, n, proposal, accept=(i < 2))
             for i, n in enumerate(validators)]
    total = sum(v.weight for v in votes)
    escalated = resolve_vote_conflict(world, proposal, votes, total,
                                      SeededRng(40))
    assert escalated == (txn.id,)
    assert txn.id not in world.mempool
    assert txn.status is TxnStatus.PENDING  # fresh panel, new round running


def test_resolve_conflict_noop_without_disputes(world):
    from gdpsim.consensus import resolve_vote_conflict
    witness_and_pool(world, 1)
    proposer = current_proposer(world)
    proposal = propose_block(world, proposer)
    validators = [n for n in world.active_devices() if n != proposer][:4]
    votes = [cast_vote(world, n, proposal, accept=(i < 2))
             for i, n in enumerate(validators)]
    total = sum(v.weight for v in votes)
    before = len(world.log)
    assert resolve_vote_conflict(world, proposal, votes, total,
                                 SeededRng(41)) == ()
    assert len(world.log) == before


def test_resolve_conflict_noop_outside_band(world):
    from gdpsim.consensus import resolve_vote_conflict
    txn = _witnessed_with_minority_objection(world)
    proposer = current_proposer(world)
    proposal = propose_block(world, proposer)
    validators = [n for n in world.active_devices() if n != proposer]
    votes = [cast_vote(world, n, proposal, accept=True) for n in validators]
    total = sum(v.weight for v in votes)
    # unanimous accept: not contested, so the objected txn stays put
    assert resolve_vote_conflict(world, proposal, votes, total,
                                 SeededRng(42)) == ()
    assert txn.status is TxnStatus.WITNESSED and txn.id in world.mempool


def test_resolve_conflict_escalation_cap_reaches_arbitration(world):
    from gdpsim.consensus import resolve_vote_conflict
    txn = _witnessed_with_minority_objection(world)
    txn.escalations = world.cfg.panel.max_escalations
    proposer = current_proposer(world)
    proposal = propose_block(world, proposer)
    validators = [n for n in world.active_devices() if n != proposer][:4]
    votes = [cast_vote(world, n, proposal, accept=(i < 2))
             for i, n in enumerate(validators)]
    total = sum(v.weight for v in votes)
    assert resolve_vote_conflict(world, proposal, votes, total,
                                 SeededRng(43)) == (txn.id,)
    opened = world.log[len(world.log) - 1]
    assert (opened.kind, opened.subject) == ("dispute_opened_from_txn",
                                             txn.id.hex())
    assert opened.detail["dispute"] in world.disputes
