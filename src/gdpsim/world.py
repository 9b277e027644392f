"""Deterministic discrete-event world binding every protocol module.

One tick runs, in order: environment actions, releases, node sync, arrivals
(with panel selection and the commit-reveal round), attestation aggregation,
the consensus round with its stochastic delay window, anomaly observation,
inspections, periodic revalidation, dispute progression, and incentive
upkeep. All randomness flows from per-purpose substreams of the master seed,
so a (config, seed) pair fully determines every emitted byte.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from . import anomaly, arbitration, consensus, incentives, onboarding, stochastic
from . import transmission
from .actors import ADVERSARY_ACTORS, DeviceActor
from .config import ScenarioConfig
from .errors import (
    ChainIntegrityViolation,
    CommitMismatch,
    GdpError,
    InsufficientStake,
    InsufficientWitnesses,
    UnknownParent,
)
from .events import EventLog
from .onboarding import DeviceStatus
from .primitives import Digest, FenwickWeights, SeededRng, float_sum
from .transmission import TxnStatus, Verdict


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Metrics-and-inspection-side knowledge about a transaction's payload.

    ``true_digest`` also backs the witnesses' observation channel; the
    ``tampered`` flag is consumed only by metrics annotation.
    """

    true_digest: Digest
    tampered: bool
    size: int


@dataclass
class PendingBlock:
    proposal: consensus.Proposal
    votes: list
    total_weight: float
    land_tick: int


class WitnessWeights:
    """Witness-draw weights in ``world.devices`` order: a device's
    reputation score while it is active, else 0, in an exact Fenwick tree.

    Built on the first draw. ``World.set_status`` and ``World.set_score``
    keep it current, one O(log N) update each; a device that joins after
    the build drops it, to be rebuilt on the next draw. ``unscored`` holds
    the devices, of any status, whose score is not positive.
    """

    def __init__(self, world: "World"):
        self.pubs = list(world.order)
        self._order = world.order  # the world's, kept by set_status
        self.unscored: set = set()
        self.tree = FenwickWeights([self._weight(world, p) for p in self.pubs])

    def _weight(self, world: "World", pub: bytes) -> float:
        score = world.reputation_accounts[pub].score
        if score > 0:
            self.unscored.discard(pub)
        else:
            self.unscored.add(pub)
        return score if world.devices[pub].status is DeviceStatus.ACTIVE else 0.0

    def update(self, world: "World", pub: bytes) -> bool:
        """Re-read one device's weight; False if the tree does not hold it."""
        i = self._order[pub]
        if i >= len(self.pubs):
            return False
        self.tree.set(i, self._weight(world, pub))
        return True

    def draw(self, rng, masked, k: int, after=None) -> list:
        """Up to ``k`` distinct devices drawn by weight, with the devices in
        ``masked`` taken out of the tree: each pick is one
        ``FenwickWeights.draw``, and each pick but the last is taken out
        too, with every device that ``after(pick)`` returns. Fewer than
        ``k`` come back when no weight is left. Everything taken out is put
        back before it returns, so the tree is as it was.

        The picks are those of ``sample_without_replacement`` over the
        active devices left, in device order: a draw reads only the exact
        total and prefix sums, which the zero positions and the tree's
        finer ``shift`` leave as they are.
        """
        tree, order, pubs = self.tree, self._order, self.pubs
        held = []  # (tree position, units) taken out for this draw

        def take(i):
            units = tree.values[i]
            if units:
                tree.add(i, -units)
                held.append((i, units))

        picks = []
        try:
            for pub in masked:
                take(order[pub])
            while tree.total:
                i = tree.draw(rng)
                pick = pubs[i]
                picks.append(pick)
                if len(picks) == k:
                    break
                units = tree.values[i]  # a pick weighs more than 0
                tree.add(i, -units)
                held.append((i, units))
                if after is not None:
                    for pub in after(pick):
                        take(order[pub])
            return picks
        finally:
            for i, units in held:
                tree.add(i, units)


class TxrateStream:
    """One device's txrate stream and its place in the wake schedule.

    Phases are counted by ``world.stream_phases``. While the device is
    active, its samples up to phase ``settled`` are in the window, and each
    later phase before ``wake`` owes a zero that
    ``StreamBaseline.quiet_span`` let the stream skip: ``push_zeros`` pays
    them when the stream is next fed or its device leaves ACTIVE. ``wake``
    is inf while the device is not active, and while no zero can wake the
    stream.
    """

    __slots__ = ("baseline", "settled", "wake")

    def __init__(self, baseline: anomaly.StreamBaseline):
        self.baseline = baseline
        self.settled = 0
        self.wake = math.inf


class _Hexes(dict):
    """Each id's lowercase hex, computed on first use. Every event field,
    detail and cause that names a device, txn, proposal or block reads its
    string here, so the log holds one ``str`` per id, hashed once, however
    many events name it. A world keeps its own: a process that runs many
    worlds frees each one's ids with it."""

    def __missing__(self, key: bytes) -> str:
        hexed = self[key] = key.hex()
        return hexed


class World:
    """All protocol state plus the append-only event log."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.tick = 0
        self.round_no = 0
        self.dispute_seq = 0

        master = SeededRng(cfg.seed)
        self.rng_actors = master.derive("actors")
        self.rng_onboarding = master.derive("onboarding")
        self.rng_selection = master.derive("selection")
        self.rng_consensus = master.derive("consensus")
        self.rng_inspection = master.derive("inspection")
        self.rng_arrival = master.derive("arrival")
        self.rng_arbitration = master.derive("arbitration")

        self.log = EventLog()
        self.hexes = _Hexes()              # id bytes -> its one hex str
        self.devices: dict = {}            # pub -> DeviceProfile
        # ``set_status`` alone keeps the active set
        self.order: dict = {}              # pub -> place in ``devices``
        self.active: list = []             # active pubs in device order
        self.active_per_group: dict = {}   # group -> active members
        self.status_version = 0            # bumped when ``active`` changes
        self._senders = (-1, [])           # (status_version, sender pool)
        self._active_hexes = (-1, [])      # (status_version, active hexes)
        self._seats = (-1, 0, 0)           # (status_version, diversity, seats)
        # ((status_version, stake_version), total): active_stake_total
        self.kept_stake_total = (None, 0.0)
        # Onboarding fixes these, so ``finalize_device`` fills them, in
        # device order and for every status; a draw re-reads status and the
        # ``arbitrator`` flag.
        self.experts: dict = {}            # category -> expert pubs
        self.arbitrators: list = []        # pubs onboarded as arbitrators
        self.group_members: dict = {}      # operator group -> member pubs
        self.sessions: dict = {}           # pub -> session not finalized
        self.blacklist = frozenset(cfg.blacklist)  # refused pub hexes
        self.actors: dict = {}             # pub -> DeviceActor
        self.transactions: dict = {}       # txn id -> DataTransaction
        self.ground_truth: dict = {}       # txn id -> GroundTruth
        self.next_nonce: dict = {}         # sender -> next nonce
        self.mempool: list = []            # witnessed txn ids
        self.unpaneled: list = []          # txns waiting for witnesses
        # the ``_panel_stamp`` the last retry pass ran under, or None once
        # a refusal since then has read scores
        self.waiting_stamp: Optional[tuple] = None
        self.aggregation_due: dict = {}    # tick -> [txn ids]
        # ``set_height`` alone keeps these. A device absent from ``heights``
        # is active and rides the canonical head; ``heights`` holds every
        # inactive device and each active one below the head, which
        # ``behind`` also lists.
        self.heights: dict = {}            # pub -> height into canonical
        self.behind: set = set()           # active pubs in ``heights``
        self.canonical = consensus.Ledger()
        self.pending_block: Optional[PendingBlock] = None
        self.stake_accounts: dict = {}
        # bumped by every stake write: incentives.open_account and _forfeit
        self.stake_version = 0
        self.reputation_accounts: dict = {}
        self.treasury = 0.0
        self.bond_escrow = 0.0
        self.total_minted = 0.0
        self.total_deposited = 0.0
        self.ban_until: dict = {}          # temp-banned pub -> release tick
        self.quarantines: dict = {}        # quarantined pub -> release tick
        self.disputes: dict = {}           # open dispute id -> Dispute
        self.pending_verdicts: list = []
        self.verdict_registry: dict = {}
        self.baselines: dict = {}          # (family, pub) -> StreamBaseline
        # One txrate stream per device that has been active, owed a sample
        # (its count of txns created that tick) by each ``_per_tick_streams``
        # phase that starts while it is active. A stream sleeps while zeros
        # change nothing but its ring: ``txrate_wakes`` (phase -> pubs) holds
        # the phase that must feed it again, and a non-zero sample feeds it
        # at once. ``stream_phases`` counts the phases started.
        self.txrate_streams: dict = {}     # pub -> TxrateStream
        self.txrate_wakes: dict = {}
        self.stream_phases = 0
        # The earliest tick at which each per-device poll could act: a poll
        # is skipped while the tick is below its floor and, when it runs,
        # sets the floor to the least due tick among its candidates. A
        # device that turns active lowers both (``lower_due_floors``).
        self.longevity_floor = math.inf     # _incentive_upkeep
        self.revalidation_floor = math.inf  # _revalidations
        self._weights: Optional[WitnessWeights] = None
        self.epoch_contrib: dict = {}      # pub -> correct attestations this epoch
        self.compromise_schedule: list = []
        self.gt_scrambler = None           # test hook: metrics-side corruption
        self._txn_counts_this_tick: dict = {}

    # ------------------------------------------------------------------ #

    def baseline(self, family: str,
                 pub: Optional[bytes] = None) -> anomaly.StreamBaseline:
        """Stream ``family``, or ``pub``'s of it, made on first use."""
        b = self.baselines.get((family, pub))
        if b is None:
            stream_id = family if pub is None else \
                f"{family}:{self.hexes[pub][:16]}"
            b = self.baselines[family, pub] = anomaly.StreamBaseline(
                stream_id, self.cfg.anomaly.window)
        return b

    def set_status(self, pub: bytes, status: DeviceStatus) -> None:
        """The one writer of device status and of the active set; re-weighs
        the device's witness draws. A device's first call, from
        ``onboarding.finalize_device``, places it last in device order. A
        device turning active again lowers the due floors. A device leaving
        ACTIVE pays its txrate stream's owed zeros; one turning active, or
        entering ``world.devices`` active, puts its stream back on the
        schedule."""
        profile = self.devices[pub]
        was_active = profile.status is DeviceStatus.ACTIVE
        if status is DeviceStatus.ACTIVE and not was_active:
            self.lower_due_floors(pub)
        if was_active and status is not DeviceStatus.ACTIVE:
            self._settle_txrate(pub).wake = math.inf
        profile.status = status
        order = self.order
        joining = pub not in order
        if joining:  # last in device order, so appended in place
            order[pub] = len(order)
        listed = was_active and not joining  # in ``self.active``
        if listed is not (status is DeviceStatus.ACTIVE):
            if joining:
                self.active.append(pub)
            else:  # a caller keeps the list it read
                active = self.active = self.active.copy()
                i = bisect_left(active, order[pub], key=order.__getitem__)
                if listed:
                    del active[i]
                else:
                    active.insert(i, pub)
                self.set_height(pub, self.height(pub))
            counts, group = self.active_per_group, profile.operator_group
            counts[group] = counts.get(group, 0) + (-1 if listed else 1)
            self.status_version += 1
        self._reweigh(pub)
        if status is DeviceStatus.ACTIVE and (
                not was_active or pub not in self.txrate_streams):
            self._resume_txrate(pub)

    def height(self, pub: bytes) -> int:
        """``pub``'s height into ``canonical``."""
        return self.heights.get(pub, self.canonical.height)

    def set_height(self, pub: bytes, height: int) -> None:
        """The one writer of ``heights`` and ``behind``. An active device
        at the head is dropped from both, so the next commit raises it with
        the head; any other device is recorded, and an active one below the
        head is listed as behind. ``set_status`` calls it when a device
        leaves or re-enters ACTIVE."""
        active = self.devices[pub].status is DeviceStatus.ACTIVE
        if active and height == self.canonical.height:
            self.heights.pop(pub, None)
        else:
            self.heights[pub] = height
        if active and height < self.canonical.height:
            self.behind.add(pub)
        else:
            self.behind.discard(pub)

    def _settle_txrate(self, pub: bytes) -> TxrateStream:
        """Pay the zeros that ``pub``'s txrate stream owes, one per phase
        started since it was settled; the wake stays as it was. Called only
        while the device is active: a stream owes nothing otherwise."""
        stream = self.txrate_streams[pub]
        owed = self.stream_phases - stream.settled
        if owed:
            stream.baseline.push_zeros(owed)
            stream.settled = self.stream_phases
        return stream

    def _resume_txrate(self, pub: bytes) -> None:
        """A device turned active, or entered ``world.devices`` active: its
        stream, made on its first activation, owes a sample from the next
        phase to start on."""
        stream = self.txrate_streams.get(pub)
        if stream is None:
            stream = self.txrate_streams[pub] = TxrateStream(
                self.baseline("txrate", pub))
        stream.settled = self.stream_phases
        self._schedule_txrate(pub, stream)

    def _schedule_txrate(self, pub: bytes, stream: TxrateStream) -> None:
        """Set the wake of a stream settled up to phase ``stream.settled``:
        the phase whose sample must go through ``feed``."""
        acfg = self.cfg.anomaly
        span = stream.baseline.quiet_span(acfg.z_threshold, acfg.cusum_drift,
                                          acfg.cusum_limit)
        stream.wake = stream.settled + 1 + span
        if span != math.inf:
            self.txrate_wakes.setdefault(stream.wake, []).append(pub)

    def lower_due_floors(self, pub: bytes) -> None:
        """Lower the longevity and revalidation floors to the due ticks of
        ``pub``. ``set_status`` and ``onboarding.finalize_device`` call it
        when a device turns active, ``set_score`` when it lifts an active
        device to the longevity minimum; no other write moves a due tick
        earlier."""
        self.longevity_floor = min(self.longevity_floor,
                                   incentives.longevity_due(self, pub))
        self.revalidation_floor = min(
            self.revalidation_floor,
            onboarding.revalidation_due(self, self.devices[pub]))

    def set_score(self, pub: bytes, score: float) -> None:
        """The one writer of reputation scores; re-weighs the device's
        witness draws. Lifting an active device to the longevity minimum
        lowers the due floors. Writing the float already held, sign and
        all, changes nothing and re-weighs nothing."""
        rep = self.reputation_accounts[pub]
        held = rep.score
        if score == held and math.copysign(1.0, score) == math.copysign(1.0, held):
            return
        lifted = held < self.cfg.incentives.longevity_min_score <= score
        rep.score = score
        self._reweigh(pub)
        if lifted and self.devices[pub].status is DeviceStatus.ACTIVE:
            self.lower_due_floors(pub)

    def _reweigh(self, pub: bytes) -> None:
        if self._weights is not None and not self._weights.update(self, pub):
            self._weights = None  # a device joined: rebuild on the next draw

    def witness_weights(self) -> WitnessWeights:
        """The witness-draw weights, built first if none are current."""
        if self._weights is None:
            self._weights = WitnessWeights(self)
        return self._weights

    def active_devices(self) -> list:
        """Active pubs in device order; read-only, shared with the world."""
        return self.active

    def active_hexes(self) -> list:
        """``hexes`` of the active pubs, in device order: one list, shared
        by every caller until the active set changes; read-only."""
        version, names = self._active_hexes
        if version != self.status_version:
            names = [self.hexes[p] for p in self.active]
            self._active_hexes = (self.status_version, names)
        return names

    def capacity(self, diversity: int) -> int:
        """Panel seats the active devices offer under the diversity cap."""
        version, held, seats = self._seats
        if (version, held) != (self.status_version, diversity):
            seats = sum(min(n, diversity)
                        for n in self.active_per_group.values())
            self._seats = (self.status_version, diversity, seats)
        return seats

    def sender_pool(self) -> list:
        """The active clients and tampering senders, in device order."""
        version, senders = self._senders
        if version != self.status_version:
            senders = [p for p in self.active
                       if self.actors[p].role in ("honest_client",
                                                  "tampering_sender")]
            self._senders = (self.status_version, senders)
        return senders


def onboard_actor(world: World, actor: DeviceActor, stake: float,
                  operator_group: str, arbitrator: bool = True,
                  expertise: frozenset = frozenset()) -> Optional[bytes]:
    """Drive one actor through the full onboarding pipeline.

    Returns the public key on success, None when any stage rejects it.
    """
    request = onboarding.RegistrationRequest(
        device_type="sensor", model="gdp-node", version="1.0.0",
        public_key=actor.pub, auth_secret=actor.auth_secret)
    session = onboarding.submit_registration(world, request)
    challenge = onboarding.issue_challenge(world, session)
    if not onboarding.verify_challenge_response(
            world, session, actor.challenge_answer(challenge)):
        return None
    window = world.tick // world.cfg.onboarding.totp_window
    if not onboarding.verify_mfa(world, session, actor.totp(window), world.tick):
        return None
    trace = [("challenge", world.tick), ("response", world.tick)]
    onboarding.score_behavior(world, session, trace)
    if session.stage is not onboarding.Stage.BEHAVIOR_SCORED:
        return None
    try:
        onboarding.finalize_device(world, session, stake,
                                   operator_group=operator_group,
                                   arbitrator=arbitrator, expertise=expertise)
    except InsufficientStake:
        session.stage = onboarding.Stage.REJECTED
        world.log.append(world.tick, "session_rejected",
                         subject=world.hexes[actor.pub], reason="stake")
        return None
    world.actors[actor.pub] = actor
    world.set_height(actor.pub, 0)
    # stochastic onboarding integration: some fresh devices get re-validated
    if stochastic.should_inspect(world.rng_inspection,
                                 world.cfg.inspection.rate_device,
                                 "device", world.tick, actor.pub):
        stochastic.inspect_device(world, actor.pub)
    return actor.pub


def _group(cfg: ScenarioConfig, index: int) -> str:
    if cfg.operator_groups <= 0:
        return f"solo{index}"
    return f"g{index % cfg.operator_groups}"


_EXPERTISE_ROTATION = ("anomaly", "tampering", "attestation_conflict")


def build_world(cfg: ScenarioConfig) -> World:
    """Validate the config, onboard the whole population, instantiate
    adversaries. Honest devices always pass through the real pipeline."""
    cfg.validate()
    world = World(cfg)
    index = 0

    def next_actor(cls=DeviceActor, role=None, **kwargs) -> DeviceActor:
        nonlocal index
        actor = cls(world.rng_actors.derive("actor", index), **kwargs)
        if role is not None:
            actor.role = role
        index += 1
        return actor

    stake = cfg.onboarding.min_stake
    for _ in range(cfg.n_honest_devices):
        actor = next_actor(role="honest_client")
        onboard_actor(world, actor, stake, _group(cfg, index - 1),
                      arbitrator=True,
                      expertise=frozenset({_EXPERTISE_ROTATION[(index - 1) % 3]}))
    for _ in range(cfg.n_witness_pool):
        actor = next_actor(role="honest_witness")
        onboard_actor(world, actor, stake, _group(cfg, index - 1),
                      arbitrator=True,
                      expertise=frozenset({_EXPERTISE_ROTATION[(index - 1) % 3]}))

    for spec in cfg.adversaries:
        params = dict(spec.params)
        adv_stake = params.pop("stake", stake)
        if spec.kind == "key_compromise":
            at_tick = params.get("at_tick", 1)
            victim_index = params.get("victim_index", 0)
            world.compromise_schedule.append((at_tick, victim_index))
            continue
        cls = ADVERSARY_ACTORS[spec.kind]
        for _ in range(spec.count):
            if spec.kind == "tampering_sender":
                actor = next_actor(cls,
                                   tamper_rate=params.get("tamper_rate", 1.0),
                                   collude=params.get("collude", False))
            else:
                actor = next_actor(cls)
            onboard_actor(world, actor, adv_stake, _group(cfg, index - 1),
                          arbitrator=False)

    world.log.append(0, "world_built", n_active=len(world.active_devices()))
    return world


# --------------------------------------------------------------------- #
# per-tick phases
# --------------------------------------------------------------------- #

def _environment(world: World) -> None:
    for at_tick, victim_index in world.compromise_schedule:
        if at_tick == world.tick:
            actives = world.active_devices()
            if actives:
                victim = actives[victim_index % len(actives)]
                world.actors[victim].auth_secret = world.rng_actors.derive(
                    "compromise", world.tick).bytes(32)
                world.log.append(world.tick, "key_compromised",
                                 subject=world.hexes[victim])
    devices = []  # sorted only in a tick where an outage starts or ends
    for outage in world.cfg.outages:
        if world.tick not in (outage.start, outage.start + outage.duration):
            continue
        devices = devices or sorted(world.devices)
        if not devices:
            continue
        target = devices[outage.device_index % len(devices)]
        if world.tick == outage.start:
            profile = world.devices[target]
            if profile.status is DeviceStatus.ACTIVE:
                ref = world.log.append(world.tick, "outage_start",
                                       subject=world.hexes[target])
                anomaly.quarantine(world, target, reason_ref=ref)
        elif world.tick == outage.start + outage.duration:
            anomaly.release_quarantine(world, target)


def _sync_lagging(world: World) -> None:
    """Each active device below the head, in device order, syncs from an
    active device above it."""
    for target in sorted(world.behind, key=world.order.__getitem__):
        height0 = world.height(target)
        sources = [p for p in world.active_devices()
                   if world.height(p) > height0]
        if not sources:
            continue
        eager = [p for p in sources if world.actors[p].eager_sync]
        pool = eager or sources
        source = world.rng_consensus.derive("sync", world.tick, target).choice(pool)
        head0 = consensus.node_head(world, target)
        try:
            consensus.synchronize(world, source, target)
        except ChainIntegrityViolation as exc:
            world.log.append(world.tick, "sync_rejected", actor=world.hexes[source],
                             subject=world.hexes[target], reason=str(exc))
        if stochastic.should_inspect(world.rng_inspection,
                                     world.cfg.inspection.rate_sync_verify,
                                     "sync", world.tick, source, target):
            batch = world.actors[source].serve_sync(world, height0)
            stochastic.verify_sync_integrity(world, source, target, batch,
                                             head0, height0)


def _run_commit_phase(world: World, txn) -> None:
    """Panel commits, then reveals, within the same delivery tick."""
    committed = []
    for witness in txn.panel:
        actor = world.actors[witness]
        verdict = actor.witness_verdict(world, txn)
        salt = actor.make_salt()
        transmission.witness_commit(world, witness, txn, verdict, salt)
        committed.append((verdict, salt))
    for witness, (verdict, salt) in zip(txn.panel, committed):
        actor = world.actors[witness]
        if not actor.will_reveal():
            continue
        revealed = actor.reveal_verdict(verdict)
        try:
            transmission.witness_reveal(world, witness, txn, revealed, salt)
        except CommitMismatch:
            # marked and penalized inside the op; equivocation is a protocol
            # violation with cryptographic evidence, so a dispute opens too
            if arbitration.can_be_party(world, witness):
                _, kinds, actors, _, _ = world.log.columns()
                hexed = world.hexes[witness]
                mismatch_ref = next(
                    ref for ref in reversed(world.log.refs_of(hexed))
                    if kinds[ref] == "commit_mismatch" and actors[ref] == hexed)
                arbitration.open_dispute(
                    world, [witness],
                    {"category": "attestation_conflict",
                     "accused": hexed, "event_refs": [mismatch_ref]})
    world.aggregation_due.setdefault(txn.reveal_deadline_tick, []).append(txn.id)


def _panel_stamp(world: World) -> tuple:
    """What a refusal before any score read depends on, besides the txn's
    two parties: the active set, ``k`` and the diversity cap."""
    panel_cfg = world.cfg.panel
    return (world.status_version, panel_cfg.k, panel_cfg.diversity)


def _try_open_panel(world: World, txn) -> bool:
    """Seat and run a panel for ``txn``; False if none can be seated. A
    refusal that read scores clears ``world.waiting_stamp``: a score write
    may seat the txn with no status change."""
    try:
        transmission.open_panel(world, txn,
                                world.rng_selection.derive("panel", txn.id,
                                                           txn.escalations))
    except InsufficientWitnesses as refusal:
        if refusal.scores_read:
            world.waiting_stamp = None
        return False
    _run_commit_phase(world, txn)
    return True


def _arrivals(world: World) -> None:
    cfg = world.cfg

    # Transactions that could not get a panel earlier retry, in the order
    # they arrived. The pass is skipped while the stamp is the one the last
    # pass ran under and no refusal since read scores: each retry would
    # raise again before drawing or logging anything.
    stamp = _panel_stamp(world)
    if world.unpaneled and world.waiting_stamp != stamp:
        world.waiting_stamp = stamp
        still_waiting = []
        for tid in world.unpaneled:
            txn = world.transactions[tid]
            if (txn.status is TxnStatus.PENDING
                    and not _try_open_panel(world, txn)):
                still_waiting.append(tid)
        world.unpaneled = still_waiting

    if world.tick > cfg.duration_ticks - cfg.drain_ticks:
        return
    senders = world.sender_pool()
    actives = world.active_devices()
    if not senders or len(actives) < 2:
        return
    # receivers are fellow client devices; the witness pool stays neutral
    receivers = senders if len(senders) >= 2 else actives
    rate = cfg.txn_arrival_rate
    count = int(rate)
    if world.rng_arrival.bernoulli(rate - count):
        count += 1
    for _ in range(count):
        sender = world.rng_arrival.choice(senders)
        receiver = sender
        while receiver == sender:
            receiver = world.rng_arrival.choice(receivers)
        size = world.rng_arrival.randint(cfg.payload_min, cfg.payload_max)
        advertised, true_digest = world.actors[sender].make_payload(world, size)
        txn = transmission.submit_transaction(world, sender, receiver, advertised)
        counts = world._txn_counts_this_tick
        counts[sender] = counts.get(sender, 0) + 1
        tampered = advertised != true_digest
        world.ground_truth[txn.id] = GroundTruth(true_digest, tampered, size)
        flag = tampered
        if world.gt_scrambler is not None:
            flag = world.gt_scrambler(txn.id, tampered)
        hexes = world.hexes
        world.log.append(world.tick, "txn_created", actor=hexes[sender],
                         subject=hexes[txn.id], receiver=hexes[receiver],
                         nonce=txn.nonce, size=size, tampered=flag)
        _feed_stream(world, world.baseline("paysize"), "", float(size))
        if not _try_open_panel(world, txn):
            world.unpaneled.append(txn.id)


def _aggregate_due(world: World) -> None:
    due = world.aggregation_due.pop(world.tick, [])
    for tid in due:
        txn = world.transactions[tid]
        if txn.status is not TxnStatus.PENDING:
            continue
        status = transmission.aggregate_attestations(world, txn)
        for witness in txn.panel:
            att = txn.attestations.get(witness)
            rejected = (att is not None and not att.equivocated
                        and att.revealed_verdict is Verdict.INVALID)
            _feed_stream(world, world.baseline("wreject", witness),
                         world.hexes[witness], 1.0 if rejected else 0.0)
        if status is TxnStatus.WITNESSED:
            world.mempool.append(tid)
            _witness_deep_flags(world, txn)
        elif status is TxnStatus.REJECTED:
            transmission.evaluate_witnesses(world, txn)
        else:  # Disputed: fresh panel or arbitration
            if transmission.reescalate_disputed(
                    world, txn, world.rng_selection.derive("escalate", tid,
                                                           txn.escalations)):
                _run_commit_phase(world, txn)


def _witness_deep_flags(world: World, txn) -> None:
    """Deep-scrutiny channel: flagged witnesses re-derive their verdict;
    a witness whose verdict lost to the aggregate raises a formal objection.

    Only a witness that revealed Invalid without equivocating can object,
    so only such a witness is drawn for. Skipping the others' draws moves
    no other draw: ``derive`` reads only the inspection stream's seed, and
    ``witness_verdict`` is pure."""
    rate = world.cfg.inspection.rate_witness_deep
    if rate <= 0:
        return
    for witness in txn.panel:
        att = txn.attestations.get(witness)
        if (att is None or att.equivocated
                or att.revealed_verdict is not Verdict.INVALID):
            continue
        if not stochastic.should_inspect(world.rng_inspection, rate,
                                         "wdeep", txn.id, witness):
            continue
        if world.actors[witness].witness_verdict(world, txn) is Verdict.INVALID:
            txn.objected = True
            world.log.append(world.tick, "objection", actor=world.hexes[witness],
                             subject=world.hexes[txn.id])


def _consensus_round(world: World) -> None:
    if world.pending_block is not None:
        return
    has_work = world.pending_verdicts or any(
        world.transactions[t].status is TxnStatus.WITNESSED for t in world.mempool)
    if not has_work:
        return
    world.round_no += 1
    proposer = consensus.current_proposer(world)
    if proposer is None:
        return
    try:
        proposal = consensus.propose_block(world, proposer)
    except GdpError:
        return

    policy = world.cfg.inspection
    if stochastic.should_inspect(world.rng_inspection,
                                 policy.rate_proposer_challenge,
                                 "puzzle", world.round_no, proposer):
        if not stochastic.challenge_proposer(world, proposer, proposal.digest,
                                             world.rng_consensus):
            world.log.append(world.tick, "round_skipped",
                             subject=world.hexes[proposer], round_no=world.round_no)
            return

    m = world.cfg.consensus.random_validators
    eligible = [n for n in world.active_devices() if n != proposer]
    if m and m < len(eligible):
        validators = stochastic.pick_random_validators(
            world.rng_consensus.derive("validators", world.round_no),
            eligible, m)
    else:
        validators = eligible
    votes = []
    total_weight = 0.0
    stake_total = consensus.active_stake_total(world)
    checks = {}  # height -> verdict on the proposal's txns, for this round
    for node in validators:
        weight = consensus.vote_weight(world, node, stake_total)
        total_weight += weight
        policy_vote = world.actors[node].vote_accept(world, proposal)
        if policy_vote is None:
            try:
                vote = consensus.validate_proposal(world, node, proposal,
                                                   weight, checks)
            except UnknownParent:
                try:
                    consensus.synchronize(world, proposal.proposer, node)
                except ChainIntegrityViolation:
                    pass
                try:
                    vote = consensus.validate_proposal(world, node, proposal,
                                                       weight, checks)
                except UnknownParent:
                    vote = consensus.cast_vote(world, node, proposal, False,
                                               weight)
        else:
            vote = consensus.cast_vote(world, node, proposal, policy_vote,
                                       weight)
        _feed_stream(world, world.baseline("voteagainst", node),
                     world.hexes[node], 0.0 if vote.accept else 1.0)
        votes.append(vote)

    delay = stochastic.random_commit_delay(
        world.rng_consensus.derive("delay", world.round_no),
        world.cfg.inspection.max_commit_delay)
    world.pending_block = PendingBlock(proposal, votes, total_weight,
                                       world.tick + delay)
    if delay == 0:
        _land_pending(world)


def _land_pending(world: World) -> None:
    pending = world.pending_block
    if pending is None or world.tick < pending.land_tick:
        return
    world.pending_block = None
    escalated = consensus.resolve_vote_conflict(
        world, pending.proposal, pending.votes, pending.total_weight,
        world.rng_selection.derive("conflict", world.round_no))
    if escalated:
        for tid in escalated:
            txn = world.transactions[tid]
            if txn.status is TxnStatus.PENDING:  # fresh panel selected
                _run_commit_phase(world, txn)
        return
    block = consensus.commit_block(world, pending.proposal, pending.votes,
                                   pending.total_weight)
    if block is None:
        return
    rate = world.cfg.inspection.rate_txn
    for tid in block.txn_ids:
        txn = world.transactions.get(tid)
        if txn is None:
            continue
        for witness in txn.panel:
            att = txn.attestations.get(witness)
            if att is not None and att.revealed_verdict is not None \
                    and not att.equivocated:
                truth_valid = txn.status is TxnStatus.COMMITTED
                if (att.revealed_verdict is Verdict.VALID) == truth_valid:
                    world.epoch_contrib[witness] = \
                        world.epoch_contrib.get(witness, 0) + 1
        if rate > 0 and stochastic.should_inspect(
                world.rng_inspection, rate, "txn", block.height, tid):
            stochastic.deep_inspect_transaction(world, txn)


def _feed_stream(world: World, b: anomaly.StreamBaseline, subject: str,
                 value: float) -> None:
    acfg = world.cfg.anomaly
    cp, po = b.feed(value, world.tick, subject, acfg.z_threshold,
                    acfg.cusum_drift, acfg.cusum_limit)
    if cp is None and po is None:
        return
    for alert in (cp, po):
        if alert is None:
            continue
        z = round(alert.z_score, 6) if math.isfinite(alert.z_score) else None
        ref = world.log.append(world.tick, "alert", subject=alert.subject,
                               stream=alert.stream_id,
                               alert_kind=alert.kind.value,
                               z_score=z, value=alert.value)
        report = anomaly.investigate(world, ref)
        if report.violations and alert.subject:
            subject_key = bytes.fromhex(alert.subject)
            profile = world.devices.get(subject_key)
            if profile is not None and profile.status is DeviceStatus.ACTIVE:
                anomaly.quarantine(world, subject_key, reason_ref=ref)


def _per_tick_streams(world: World) -> None:
    """Feed the txrate streams that are due: each device active now with a
    txn this tick or a wake at this phase, in device order. Every other
    active device's stream sleeps, and owes this phase's zero."""
    counts = world._txn_counts_this_tick
    streams = world.txrate_streams
    phase = world.stream_phases + 1
    due = {pub for pub in counts
           if world.devices[pub].status is DeviceStatus.ACTIVE}
    due.update(pub for pub in world.txrate_wakes.pop(phase, ())
               if streams[pub].wake == phase)
    due = sorted(due, key=world.order.__getitem__)
    for pub in due:
        # this phase's sample is taken: a status flip before it is fed
        # owes nothing, and the feed sets the next wake
        world._settle_txrate(pub).settled = phase
    world.stream_phases = phase  # a device turning active now waits a phase
    for pub in due:
        stream = streams[pub]
        _feed_stream(world, stream.baseline, world.hexes[pub],
                     float(counts.get(pub, 0)))
        if world.devices[pub].status is DeviceStatus.ACTIVE:
            world._schedule_txrate(pub, stream)
    counts.clear()


def _revalidations(world: World) -> None:
    if world.tick < world.revalidation_floor:
        return
    period = world.cfg.onboarding.revalidation_period
    world.revalidation_floor = math.inf
    floor = math.inf
    for pub in world.active_devices():
        profile = world.devices[pub]
        if world.tick - profile.last_revalidation_tick >= period:
            ok = onboarding.revalidate_device(world, profile, world.tick)
            if not ok:
                _, kinds, _, subjects, _ = world.log.columns()
                hexed = world.hexes[pub]
                ref = next(
                    (i for i in reversed(world.log.refs_of(hexed))
                     if subjects[i] == hexed and kinds[i] == "revalidation"),
                    len(world.log) - 1)
                arbitration.open_dispute(
                    world, [pub], {"category": "anomaly", "accused": hexed,
                                   "event_refs": [ref]})
        if profile.status is DeviceStatus.ACTIVE:
            floor = min(floor, onboarding.revalidation_due(world, profile))
    world.revalidation_floor = min(world.revalidation_floor, floor)


def _progress_disputes(world: World) -> None:
    for dispute in list(world.disputes.values()):
        arbitration.advance(world, dispute)


def _incentive_upkeep(world: World) -> None:
    cfg = world.cfg.incentives
    if world.tick % cfg.epoch_ticks == 0 and world.epoch_contrib:
        total = float(sum(world.epoch_contrib.values()))
        for pub, units in sorted(world.epoch_contrib.items()):
            profile = world.devices.get(pub)
            if profile is None or profile.status is not DeviceStatus.ACTIVE:
                continue
            incentives.apply_contribution_reward(world, pub, float(units), total,
                                                 cause=f"epoch:{world.tick}")
        world.epoch_contrib.clear()
    if world.tick < world.longevity_floor:
        return
    world.longevity_floor = math.inf
    floor = math.inf
    for pub in world.active_devices():
        # apply_longevity_bonus pays nothing before the due tick
        due = incentives.longevity_due(world, pub)
        if world.tick >= due and incentives.apply_longevity_bonus(
                world, pub, world.tick):
            due = incentives.longevity_due(world, pub)
        floor = min(floor, due)
    world.longevity_floor = min(world.longevity_floor, floor)


def _sample_metrics(world: World) -> None:
    if world.tick % world.cfg.metrics_sample_every != 0:
        return
    by_role: dict = {}
    for pub, rep in world.reputation_accounts.items():
        role = world.actors[pub].role if pub in world.actors else "unknown"
        by_role.setdefault(role, []).append(rep.score)
    for role in sorted(by_role):
        scores = by_role[role]
        mean = float_sum(scores) / len(scores)
        world.log.append(world.tick, "rep_sample", subject=role,
                         mean=round(mean, 9), n=len(scores))


def step(world: World) -> int:
    """Advance one tick; returns the number of events appended."""
    before = len(world.log)
    world.tick += 1
    world.log.append(world.tick, "heartbeat")

    _environment(world)
    incentives.release_due_bans(world)
    anomaly.release_due_quarantines(world)
    _sync_lagging(world)

    _arrivals(world)
    _aggregate_due(world)
    _land_pending(world)
    _consensus_round(world)
    _per_tick_streams(world)
    _revalidations(world)
    _progress_disputes(world)
    _incentive_upkeep(world)
    _sample_metrics(world)
    return len(world.log) - before


def run_world(cfg: ScenarioConfig) -> World:
    world = build_world(cfg)
    for _ in range(cfg.duration_ticks):
        step(world)
    return world
