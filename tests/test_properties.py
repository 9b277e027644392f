"""Property-based invariants over the numeric and stateful cores."""

import copy
import dataclasses
import hashlib
import json
import math
import statistics
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gdpsim import (
    anomaly,
    arbitration,
    consensus,
    incentives,
    metrics,
    onboarding,
)
from gdpsim import world as world_mod
from gdpsim.anomaly import (
    AlertKind,
    AnomalyAlert,
    StreamBaseline,
    calibrated_cut,
)
from gdpsim.errors import (
    AlreadyQuarantined,
    ChainIntegrityViolation,
    GdpError,
    WrongStage,
)
from gdpsim.events import Event, EventLog, encode_event
from gdpsim.incentives import Severity, conservation_gap, deterrence_margin
from gdpsim.onboarding import DeviceStatus
from gdpsim.primitives import (
    FenwickWeights,
    SeededRng,
    digest,
    float_sum,
    sample_without_replacement,
)
from conftest import (aggregation_oracle, fresh_actor, mini_world, onboard,
                      prefix_sum, stats, window_std)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(finite_floats, min_size=2, max_size=400),
       st.integers(min_value=2, max_value=50))
@settings(max_examples=200, deadline=None)
def test_window_stats_match_batch(stream, window):
    b = StreamBaseline("s", window)
    for i, x in enumerate(stream):
        b.push(x)
        tail = stream[max(0, i + 1 - window):i + 1]
        mean = statistics.fmean(tail)
        scale = max(1.0, abs(mean))
        assert abs(stats(b)[0] - mean) <= 1e-9 * scale
        if len(tail) >= 2:
            std = statistics.stdev(tail)
            assert abs(window_std(b) - std) <= 1e-9 * max(1.0, std)


integral_floats = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-2 ** 60, max_value=2 ** 60)).map(float)


@given(st.integers(min_value=2, max_value=50),
       st.lists(integral_floats, min_size=101, max_size=200))
@settings(max_examples=100, deadline=None)
def test_integral_window_stats_are_correctly_rounded(window, stream):
    """Every push, while the window fills and after it rolls."""
    b = StreamBaseline("s", window)
    for i, x in enumerate(stream):
        b.push(x)
        tail = [int(v) for v in stream[max(0, i + 1 - window):i + 1]]
        n = len(tail)
        s1 = sum(tail)
        s2 = sum(v * v for v in tail)
        assert stats(b) == (float(Fraction(s1, n)),
                             float(Fraction(n * s2 - s1 * s1, n)))


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
@settings(max_examples=50, deadline=None)
def test_rng_streams_reproducible(seed):
    a, b = SeededRng(seed), SeededRng(seed)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert a.derive("k", 1).next_u64() == b.derive("k", 1).next_u64()


@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=0, max_value=300))
@example(0, 0)
@example(1234567, 1)
@example(1234567, 7)
@example(2 ** 64 - 1, 8)
@example(0, 9)
@example(2 ** 64 - 1, 256)
@example(0x9E3779B97F4A7C15, 4096)
@example(1234567, 8193)
@settings(max_examples=200, deadline=None)
def test_rng_bytes_match_per_word_draws(seed, n):
    """``bytes`` draws its words in lanes of one int, up to 256 bytes at a
    time: its bytes are the big-endian ``next_u64`` words cut to n, and it
    leaves the same state."""
    fast, slow = SeededRng(seed), SeededRng(seed)
    words = b"".join(slow.next_u64().to_bytes(8, "big")
                     for _ in range(-(-n // 8)))
    assert fast.bytes(n) == words[:n]
    assert fast._state == slow._state


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=1, max_size=30),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=150, deadline=None)
def test_weighted_sample_respects_support(weights, seed):
    population = list(range(len(weights)))
    positive = [i for i, w in zip(population, weights) if w > 0]
    k = max(1, len(positive) // 2)
    if not positive:
        return
    picked = sample_without_replacement(SeededRng(seed), population, weights, k)
    assert len(set(picked)) == k
    assert set(picked) <= set(positive)


keys = st.sampled_from(["", "a", "b", "c"])


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3), keys, keys,
                          st.booleans()),
                max_size=60),
       st.integers(min_value=-5, max_value=40),
       st.integers(min_value=-3, max_value=20),
       st.one_of(st.none(), keys))
@settings(max_examples=300, deadline=None)
def test_slice_around_matches_brute_force(rows, center, radius, subject):
    """Every read of the column log equals the same read of a list of
    ``Event``s: ``slice_around``, ``refs_of``, ``log[ref]`` (negative refs
    too), iteration and the columns."""
    log = EventLog()
    reference = []
    tick = 0
    for step, actor, key, self_subject in rows:
        tick += step
        event = Event(tick, f"k{step}", actor, actor if self_subject else key,
                      {"n": len(reference)} if step else {})
        assert log.append(event.tick, event.kind, actor=event.actor,
                          subject=event.subject, **event.detail) == \
            len(reference)
        reference.append(event)
    lo, hi = max(0, center - radius), center + radius
    expected = [ref for ref, ev in enumerate(reference)
                if lo <= ev.tick <= hi
                and (subject is None or ev.subject == subject or ev.actor == subject)]
    assert log.slice_around(center, radius, subject=subject) == expected
    for key in ("", "a", "b", "c"):
        assert list(log.refs_of(key)) == [
            ref for ref, ev in enumerate(reference)
            if ev.subject == key or ev.actor == key]
    assert len(log) == len(reference)
    assert list(log) == reference
    for ref in range(-len(reference), len(reference)):
        assert log[ref] == reference[ref]
    assert log.columns() == tuple(
        [getattr(ev, field) for ev in reference]
        for field in ("tick", "kind", "actor", "subject", "detail"))


@given(st.lists(st.sampled_from(["valid", "invalid", "missing"]),
                min_size=1, max_size=9),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=300, deadline=None)
def test_aggregation_oracle_total(reveals, quorum):
    quorum = min(quorum, len(reveals))
    outcome = aggregation_oracle(reveals, quorum)
    valid = sum(1 for r in reveals if r == "valid")
    invalid = len(reveals) - valid
    assert outcome in ("Witnessed", "Rejected", "Disputed")
    if outcome == "Witnessed":
        assert valid >= quorum
    elif outcome == "Rejected":
        assert invalid >= quorum and valid < quorum
    else:
        assert valid < quorum and invalid < quorum


@given(st.lists(st.sampled_from(["perf", "minor", "major", "critical",
                                 "contrib", "restore"]),
                min_size=1, max_size=40),
       st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_reputation_bounds_and_conservation(ops, owner_idx):
    world = mini_world()
    owners = world.active_devices()
    owner = owners[owner_idx % len(owners)]
    for op in ops:
        banned = world.devices[owner].status is DeviceStatus.BANNED
        try:
            if op == "perf":
                incentives.apply_performance_reward(world, owner, cause="p")
            elif op == "minor":
                incentives.apply_penalty(world, owner, Severity.MINOR, "p")
            elif op == "major":
                incentives.apply_penalty(world, owner, Severity.MAJOR, "p")
            elif op == "critical":
                incentives.apply_penalty(world, owner, Severity.CRITICAL, "p")
            elif op == "contrib":
                incentives.apply_contribution_reward(world, owner, 1.0, 4.0, "p")
            else:
                incentives.restore_reputation(world, owner, 0.25, cause="p")
        except incentives.SubjectBanned:
            assert banned
        score = world.reputation_accounts[owner].score
        assert 0.0 <= score <= 1.0
        assert world.stake_accounts[owner].staked >= 0.0
        assert conservation_gap(world) < 1e-9


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
       st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_deterrence_margin_properties(p, reward, forfeit):
    margin = deterrence_margin(reward, p, forfeit)
    assert margin <= reward * (1 - p) + 1e-9
    if forfeit == 0:
        assert math.isclose(margin, reward * (1 - p), abs_tol=1e-12)
    if p == 1.0:
        assert math.isclose(margin, -forfeit, abs_tol=1e-12)


scores = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                  st.sampled_from([0.0, 1.0, 0.5, 5e-324, 2.0 ** -60]))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10),
                          st.one_of(st.sampled_from(list(DeviceStatus)),
                                    scores)),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_witness_weight_sums_are_exact(changes):
    """After any mix of status and score writes, re-activation and zero
    scores included, every prefix sum of the witness-weight tree is the
    exact sum of the active scores before it in device order."""
    world = mini_world()
    devices = list(world.devices)
    weights = world.witness_weights()
    for index, change in changes:
        pub = devices[index % len(devices)]
        if isinstance(change, DeviceStatus):
            world.set_status(pub, change)
        else:
            world.set_score(pub, change)
        assert world.witness_weights() is weights  # no device joined
        tree = weights.tree
        unit = Fraction(1, 1 << tree.shift)
        exact = Fraction(0)
        for i, p in enumerate(devices):
            assert prefix_sum(tree, i) * unit == exact
            if world.devices[p].status is DeviceStatus.ACTIVE:
                exact += Fraction(world.reputation_accounts[p].score)
        assert prefix_sum(tree, len(devices)) * unit == tree.total * unit == exact
        assert weights.unscored == {
            p for p in devices if world.reputation_accounts[p].score <= 0}


@given(st.lists(scores, min_size=1, max_size=60),
       st.integers(min_value=0, max_value=2 ** 64 - 1))
@settings(max_examples=300, deadline=None)
def test_fenwick_draw_is_first_exact_prefix_above_x(weights, seed):
    tree = FenwickWeights(weights)
    if not tree.total:
        return
    exact = [Fraction(w) for w in weights]
    x = Fraction(SeededRng(seed).random() * float(sum(exact)))
    acc = Fraction(0)
    expected = max(i for i, w in enumerate(weights) if w > 0)
    for i, w in enumerate(exact):
        acc += w
        if acc > x:
            expected = i
            break
    assert tree.draw(SeededRng(seed)) == expected


@given(st.lists(st.one_of(scores, st.floats(min_value=1e-300, max_value=1e12)),
                min_size=1, max_size=40),
       st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=300, deadline=None)
def test_sample_without_replacement_is_successive_exact_draws(weights, seed,
                                                              k):
    """Each seat is the first item whose exact prefix sum over the remaining
    positive weights exceeds ``rng.random()`` times their total, that product
    rounded to a float; the last remaining item when none does."""
    remaining = [(i, Fraction(w)) for i, w in enumerate(weights) if w > 0]
    k = min(k, len(remaining))
    rng = SeededRng(seed)
    expected = []
    for _ in range(k):
        x = Fraction(rng.random() * float(sum(w for _, w in remaining)))
        acc = Fraction(0)
        pick = len(remaining) - 1
        for j, (_, w) in enumerate(remaining):
            acc += w
            if acc > x:
                pick = j
                break
        expected.append(remaining.pop(pick)[0])
    population = list(range(len(weights)))
    assert sample_without_replacement(SeededRng(seed), population, weights,
                                      k) == expected


_active_set_step = st.one_of(
    st.tuples(st.just("status"), st.integers(min_value=0, max_value=30),
              st.sampled_from(list(DeviceStatus))),
    st.tuples(st.just("join"), st.integers(min_value=0, max_value=3),
              st.sampled_from(["honest_client", "honest_witness"])))


@given(st.lists(_active_set_step, min_size=1, max_size=40))
@example([("status", 0, DeviceStatus.QUARANTINED),
          ("join", 0, "honest_client"), ("status", 0, DeviceStatus.ACTIVE),
          ("status", 11, DeviceStatus.BANNED)])
@settings(max_examples=60, deadline=None)
def test_kept_active_set_matches_a_fresh_scan(steps):
    """After every status write and every join, the active set that
    ``World.set_status`` keeps, and each memo keyed on its version, equal
    what one fresh pass over ``world.devices`` gives. A flip replaces the
    active list, so a caller's list is never edited in place."""
    world = mini_world(operator_groups=3)
    joined = 0
    for kind, index, arg in steps:
        devices = list(world.devices)
        # memos that a flip must make stale
        world.capacity(2)
        world.sender_pool()
        consensus.active_stake_total(world)
        if kind == "status":
            before = world.active_devices()
            snapshot = list(before)
            world.set_status(devices[index % len(devices)], arg)
            assert before == snapshot  # a caller's list is never edited
        else:
            joined += 1
            assert onboard(world, fresh_actor(9000 + joined, role=arg),
                           group=f"g{index}") is not None
            devices = list(world.devices)

        active = [p for p, prof in world.devices.items()
                  if prof.status is DeviceStatus.ACTIVE]
        assert world.active == active
        assert world.active_devices() is world.active
        assert world.order == {p: i for i, p in enumerate(devices)}
        groups = [world.devices[p].operator_group for p in active]
        counts = {g: groups.count(g) for g in set(groups)}
        assert {g: n for g, n in world.active_per_group.items() if n} == counts
        assert min(world.active_per_group.values()) >= 0
        for diversity in (1, 2, 3):
            assert world.capacity(diversity) == sum(
                min(n, diversity) for n in counts.values())
        assert world.sender_pool() == [
            p for p in active
            if world.actors[p].role in ("honest_client", "tampering_sender")]
        assert consensus.active_stake_total(world) == float_sum(
            world.stake_accounts[p].staked for p in active)
        party = devices[index % len(devices)]
        party_group = world.devices[party].operator_group
        dispute = SimpleNamespace(parties=[party])
        assert arbitration._conflict_free(world, dispute) == [
            p for p in active
            if p != party and world.devices[p].operator_group != party_group]
        assert arbitration._conflict_free(
            world, dispute, among=devices[::-1]) == [
            p for p in reversed(active)
            if p != party and world.devices[p].operator_group != party_group]


_height_step = st.one_of(
    st.tuples(st.just("tick"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("status"), st.integers(min_value=0, max_value=30),
              st.sampled_from(list(DeviceStatus))),
    st.tuples(st.just("join"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("sync"), st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=30), st.booleans()))


@given(st.lists(_height_step, min_size=1, max_size=30))
@example([("status", 0, DeviceStatus.QUARANTINED), ("tick", 4),
          ("status", 0, DeviceStatus.ACTIVE), ("sync", 0, 1, True),
          ("join", 0), ("status", 11, DeviceStatus.BANNED), ("tick", 4),
          ("sync", 11, 1, False), ("status", 11, DeviceStatus.ACTIVE),
          ("tick", 4)])
@settings(max_examples=60, deadline=None)
def test_kept_heights_match_a_full_height_map(steps):
    """A world keeps a height only for a device off the canonical head: an
    inactive one, or an active one below the head, which ``world.behind``
    lists. After every tick, status write, join and direct sync (a forged
    batch included), ``World.height`` gives for every device what a full
    map kept the old way holds: each commit raises every active device at
    its parent, each sync sets its target, a join starts at 0."""
    world = mini_world(duration_ticks=400)
    full = {p: 0 for p in world.devices}
    real_commit, real_sync = consensus.commit_block, consensus.synchronize

    def committing(world, proposal, votes, total_weight):
        block = real_commit(world, proposal, votes, total_weight)
        if block is not None:
            for p in world.active_devices():
                if full[p] == block.height - 1:
                    full[p] = block.height
        return block

    def syncing(world, node_a, node_b):
        lower = node_a if full[node_a] < full[node_b] else node_b
        adopted = real_sync(world, node_a, node_b)
        full[lower] += adopted
        return adopted

    def forging(actor):
        real = actor.serve_sync

        def serve(world, from_height):
            batch = list(real(world, from_height))
            batch[0] = dataclasses.replace(batch[0],
                                           block_digest=digest(b"forged"))
            return batch
        return serve

    joined = 0
    with mock.patch.object(consensus, "commit_block", committing), \
            mock.patch.object(consensus, "synchronize", syncing):
        while not world.canonical.height:  # up to the first block
            world_mod.step(world)
        for kind, *args in steps:
            devices = list(world.devices)
            if kind == "tick":
                for _ in range(args[0]):
                    world_mod.step(world)
            elif kind == "status":
                world.set_status(devices[args[0] % len(devices)], args[1])
            elif kind == "join":
                joined += 1
                pub = onboard(world, fresh_actor(9100 + joined),
                              group=f"g{args[0]}")
                assert pub is not None
                full[pub] = 0
            else:
                a, b = (devices[i % len(devices)] for i in args[:2])
                if args[2] and full[a] != full[b]:
                    source = world.actors[a if full[a] > full[b] else b]
                    source.serve_sync = forging(source)
                    try:
                        with pytest.raises(ChainIntegrityViolation):
                            consensus.synchronize(world, a, b)
                    finally:
                        del source.serve_sync
                else:
                    consensus.synchronize(world, a, b)

            head = world.canonical.height
            active = set(world.active_devices())
            assert {p: world.height(p) for p in world.devices} == full
            assert world.behind == {p for p in active if full[p] < head}
            assert set(world.heights) == \
                (set(world.devices) - active) | world.behind


_stake_ops = st.one_of(
    st.tuples(st.just("slash"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("status"), st.integers(min_value=0, max_value=30),
              st.sampled_from(list(DeviceStatus))),
    st.tuples(st.just("join"),
              st.floats(min_value=0.0, max_value=1e3, allow_nan=False)))


@given(st.lists(_stake_ops, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_kept_stake_total_equals_a_fresh_sum(ops):
    """``consensus.active_stake_total`` keeps its sum between calls; after
    slashes, status flips and new accounts it is still the very float a
    fresh ``float_sum`` over the active devices gives."""
    world = mini_world(operator_groups=3)
    for joined, op in enumerate(ops):
        consensus.active_stake_total(world)  # a kept total, to go stale
        devices = list(world.devices)
        if op[0] == "slash":
            incentives.apply_penalty(world, devices[op[1] % len(devices)],
                                     Severity.MAJOR, "p")
        elif op[0] == "status":
            world.set_status(devices[op[1] % len(devices)], op[2])
        else:
            onboard(world, fresh_actor(9000 + joined),
                    stake=world.cfg.onboarding.min_stake + op[1])
        fresh = float_sum(world.stake_accounts[p].staked
                          for p, prof in world.devices.items()
                          if prof.status is DeviceStatus.ACTIVE)
        kept = consensus.active_stake_total(world)
        assert (kept, type(kept)) == (fresh, type(fresh))
        assert consensus.active_stake_total(world) is kept


def _weights_state(weights):
    """A witness-weight tree as exact weights, whatever its unit."""
    tree = weights.tree
    unit = Fraction(1, 1 << tree.shift)
    return (weights.pubs, weights.unscored,
            [v * unit for v in tree.values],
            [prefix_sum(tree, i) * unit for i in range(len(tree.values) + 1)],
            tree.total * unit)


_weight_step = st.one_of(
    st.tuples(st.just("score"), st.integers(min_value=0, max_value=12),
              st.one_of(scores, st.sampled_from([-0.0, "held"]))),
    st.tuples(st.just("status"), st.integers(min_value=0, max_value=12),
              st.sampled_from(list(DeviceStatus))),
    st.tuples(st.just("join")),
    st.tuples(st.just("build")),
)


@given(st.lists(_weight_step, min_size=1, max_size=30))
@example([("build",), ("score", 0, 0.0), ("score", 0, -0.0),
          ("score", 0, -0.0), ("score", 0, 0.0)])
@example([("build",), ("score", 1, "held"), ("join",), ("score", 1, "held"),
          ("build",), ("score", 11, "held")])
@settings(max_examples=80, deadline=None)
def test_witness_weights_match_a_fresh_build(steps):
    """After every status or score write, the held witness-weight tree, if
    any, is the one ``WitnessWeights`` builds afresh: a write of the score
    already held (``"held"``) changes nothing, a device that joined after
    the build drops the tree, and each score keeps the float last written,
    so 0.0 then -0.0 is a write."""
    world = mini_world()
    written = {}
    joined = 0
    for step in steps:
        kind, *args = step
        devices = list(world.devices)
        if kind == "score":
            pub = devices[args[0] % len(devices)]
            score = args[1]
            if score == "held":
                score = world.reputation_accounts[pub].score
            world.set_score(pub, score)
            written[pub] = score
        elif kind == "status":
            world.set_status(devices[args[0] % len(devices)], args[1])
        elif kind == "join":
            joined += 1
            onboard(world, fresh_actor(9000 + joined))
        else:
            world.witness_weights()
        if world._weights is not None:
            assert _weights_state(world._weights) == \
                _weights_state(world_mod.WitnessWeights(world))
        for pub, score in written.items():
            held = world.reputation_accounts[pub].score
            assert held == score
            assert math.copysign(1.0, held) == math.copysign(1.0, score)


def test_a_joining_device_drops_the_tree():
    """A write of the score already held re-weighs nothing. A device that
    joins through ``World.set_status`` after the build drops the tree, to be
    rebuilt on the next draw with the device in it."""
    world = mini_world()
    held = world.witness_weights()
    first = next(iter(world.devices))
    world.set_score(first, world.reputation_accounts[first].score)
    assert world.witness_weights() is held
    pub = onboard(world, fresh_actor(9000))
    assert pub is not None and world._weights is None
    world.set_score(pub, world.reputation_accounts[pub].score)
    rebuilt = world.witness_weights()
    assert rebuilt.pubs == list(world.devices)
    assert rebuilt.tree.values[world.order[pub]] > 0


_device_change = st.tuples(st.integers(min_value=0, max_value=10),
                           st.one_of(st.sampled_from(list(DeviceStatus)),
                                     scores))


def _drawn_world(changes, fine):
    """A mini world in three operator groups whose witness-weight tree was
    built first and then took ``changes``; one score of ``fine`` made the
    tree's unit finer before it was put back."""
    world = mini_world(operator_groups=3)
    devices = list(world.devices)
    weights = world.witness_weights()
    before = world.reputation_accounts[devices[-1]].score
    world.set_score(devices[-1], fine)
    world.set_score(devices[-1], before)
    for index, change in changes:
        pub = devices[index % len(devices)]
        if isinstance(change, DeviceStatus):
            world.set_status(pub, change)
        else:
            world.set_score(pub, change)
    assert world.witness_weights() is weights
    return world, devices


def _tree_state(world):
    tree = world.witness_weights().tree
    return list(tree.values), tree.total, tree.shift


@given(st.lists(_device_change, max_size=30),
       st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=3),
       st.sampled_from(["anomaly", "tampering", "none"]),
       st.sampled_from([2.0 ** -60, 5e-324]),
       st.integers(min_value=0, max_value=2 ** 64 - 1))
@settings(max_examples=300, deadline=None)
def test_mediator_draw_matches_a_draw_over_the_explicit_pool(
        changes, party_indexes, category, fine, seed):
    """The mediator is ``sample_without_replacement``'s pick over the
    conflict-free experts while one has a positive score, else over the
    whole conflict-free pool, else None: whatever the statuses and zero
    scores, with parties sharing operator groups, and on a tree whose unit
    an earlier score made finer. The draw leaves the tree as it was."""
    world, devices = _drawn_world(changes, fine)
    parties = [devices[i % len(devices)] for i in party_indexes]
    dispute = SimpleNamespace(parties=parties, claim={"category": category})
    pool = arbitration._conflict_free(world, dispute)
    experts = [p for p in pool if category in world.devices[p].expertise]
    want = None
    for candidates in (experts, pool):
        weights = [world.reputation_accounts[p].score for p in candidates]
        if any(w > 0 for w in weights):
            want = sample_without_replacement(SeededRng(seed), candidates,
                                              weights, 1)[0]
            break
    before = _tree_state(world)
    assert arbitration._draw_mediator(world, dispute, SeededRng(seed)) == want
    assert _tree_state(world) == before


@given(st.lists(_device_change, max_size=30),
       st.sets(st.integers(min_value=0, max_value=10), max_size=4),
       st.integers(min_value=1, max_value=12),
       st.sampled_from([2.0 ** -60, 5e-324]),
       st.integers(min_value=0, max_value=2 ** 64 - 1))
@settings(max_examples=300, deadline=None)
def test_masked_tree_draw_matches_sample_without_replacement(
        changes, masked_indexes, k, fine, seed):
    """``WitnessWeights.draw`` with some devices masked picks what
    ``sample_without_replacement`` picks over the active devices left, and
    stops, without raising, at the number of them with a positive score."""
    world, devices = _drawn_world(changes, fine)
    masked = [devices[i % len(devices)] for i in masked_indexes]
    pool = [p for p in world.active_devices() if p not in masked]
    weights = [world.reputation_accounts[p].score for p in pool]
    want = sample_without_replacement(
        SeededRng(seed), pool, weights,
        min(k, sum(1 for w in weights if w > 0)))
    before = _tree_state(world)
    assert world.witness_weights().draw(SeededRng(seed), masked, k) == want
    assert _tree_state(world) == before


# --- the fused stream feed against the two detectors it replaced ---


def _reference_observe(baseline, sample, tick, subject="", z_threshold=3.0):
    alert = None
    if baseline.fed >= baseline.window:
        std = window_std(baseline)
        mean = stats(baseline)[0]
        if std == 0.0:
            if sample != mean:
                alert = AnomalyAlert(baseline.stream_id, tick, sample,
                                     math.inf, AlertKind.POINT_OUTLIER, subject)
        else:
            z = (sample - mean) / std
            if abs(z) > calibrated_cut(z_threshold, baseline.window):
                alert = AnomalyAlert(baseline.stream_id, tick, sample, z,
                                     AlertKind.POINT_OUTLIER, subject)
    baseline.push(sample)
    return alert


def _reference_detect_changepoint(baseline, sample, tick=0, subject="",
                                  drift=0.5, limit=5.0):
    if baseline.fed < baseline.window:
        return None
    std = window_std(baseline)
    z = 0.0 if std == 0.0 else (sample - stats(baseline)[0]) / std
    baseline.cusum_pos = max(0.0, baseline.cusum_pos + z - drift)
    baseline.cusum_neg = max(0.0, baseline.cusum_neg - z - drift)
    if baseline.cusum_pos > limit or baseline.cusum_neg > limit:
        stat = max(baseline.cusum_pos, baseline.cusum_neg)
        baseline.cusum_pos = 0.0
        baseline.cusum_neg = 0.0
        return AnomalyAlert(baseline.stream_id, tick, sample,
                            stat if z >= 0 else -stat,
                            AlertKind.CHANGEPOINT, subject)
    return None


def _alert_fields(alert):
    """Every field, floats by ``repr`` so that the sign of zero, inf and nan
    compare bit for bit."""
    if alert is None:
        return None
    return (alert.stream_id, alert.tick, repr(alert.value),
            repr(alert.z_score), alert.kind, alert.subject)


def _baseline_state(b):
    return (b.stream_id, b.window, b.fed, b.s1, b.s2, b.n_fractional,
            repr(b.cusum_pos), repr(b.cusum_neg),
            [(i, repr(x)) for i, x in b.ring])


_stream_segment = st.one_of(
    # integral samples, as every in-world stream feeds
    st.lists(st.integers(min_value=-20, max_value=20).map(float),
             min_size=1, max_size=25),
    st.lists(finite_floats, min_size=1, max_size=25),
    # a constant run (a zero-std window once it fills the window)
    st.tuples(st.integers(min_value=-5, max_value=5).map(float),
              st.integers(min_value=1, max_value=25)).map(
        lambda run: [run[0]] * run[1]),
    # a level shift with small integral noise: CUSUM and point alarms
    st.tuples(st.sampled_from([-1e4, -300.0, 40.0, 1e3, 2.5e5]),
              st.lists(st.integers(min_value=-2, max_value=2),
                       min_size=1, max_size=25)).map(
        lambda shift: [shift[0] + d for d in shift[1]]),
    st.sampled_from([[math.inf], [-math.inf]]),
)


@given(st.lists(_stream_segment, min_size=1, max_size=10).map(
           lambda segments: [x for seg in segments for x in seg]),
       st.integers(min_value=2, max_value=12),
       st.floats(min_value=0.5, max_value=6.0),
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.1, max_value=10.0))
# at z_threshold 0 the cut is 0.0, so a residual of 0 lands on it: no outlier
@example([1.0, -1.0, 0.0], 2, 0.0, 0.5, 5.0)
@settings(max_examples=300, deadline=None)
def test_feed_matches_detect_changepoint_then_observe(stream, window,
                                                      z_threshold, drift,
                                                      limit):
    """``StreamBaseline.feed`` returns the alerts, and leaves the window and
    CUSUM state, of the changepoint test followed by the point test."""
    fused, reference = StreamBaseline("s", window), StreamBaseline("s", window)
    for tick, x in enumerate(stream):
        got = fused.feed(x, tick, "dev", z_threshold, drift, limit)
        want = (_reference_detect_changepoint(reference, x, tick, "dev",
                                              drift=drift, limit=limit),
                _reference_observe(reference, x, tick, "dev",
                                   z_threshold=z_threshold))
        assert [_alert_fields(a) for a in got] == \
            [_alert_fields(a) for a in want]
        assert _baseline_state(fused) == _baseline_state(reference)


@given(st.integers(min_value=2, max_value=12),
       st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 3, 7, 40]),
                max_size=40),
       st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
       st.sampled_from([0.5, 2.0, 5.0]))
@example(4, [1, 0, 0, 0], 3.0, 0.5, 5.0)  # one zero, and it evicts the 1
@settings(max_examples=300, deadline=None)
def test_quiet_span_zeros_raise_nothing(window, samples, z_threshold, drift,
                                        limit):
    """From any integral window with both CUSUMs at 0, the zeros that
    ``quiet_span`` lets ``push_zeros`` take, fed through ``feed`` instead,
    raise no alert and leave both CUSUMs at 0, and end in the state that
    ``push_zeros`` leaves. A span from a quiet full window ends with the
    zero that evicts the oldest non-zero sample: that zero is still judged
    against the window it evicts from."""
    b = StreamBaseline("s", window)
    for x in samples:
        b.push(float(x))
    count = min(b.quiet_span(z_threshold, drift, limit), 300)
    fed, skipped = copy.deepcopy(b), copy.deepcopy(b)
    for tick in range(count):
        assert fed.feed(0.0, tick, "dev", z_threshold, drift,
                        limit) == (None, None)
        assert (fed.cusum_pos, fed.cusum_neg) == (0.0, 0.0)
    skipped.push_zeros(count)
    assert _baseline_state(fed) == _baseline_state(skipped)
    if b.ring and count and skipped.fed > window:
        assert b.ring[0] not in skipped.ring


# --- floored periodic polls against the unconditional polls ---


def _reference_revalidations(world):
    period = world.cfg.onboarding.revalidation_period
    for pub in world.active_devices():
        profile = world.devices[pub]
        if world.tick - profile.last_revalidation_tick >= period:
            ok = onboarding.revalidate_device(world, profile, world.tick)
            if not ok:
                ref = next(
                    (i for i in reversed(world.log.refs_of(pub.hex()))
                     if world.log[i].subject == pub.hex()
                     and world.log[i].kind == "revalidation"),
                    len(world.log) - 1)
                arbitration.open_dispute(
                    world, [pub], {"category": "anomaly", "accused": pub.hex(),
                                   "event_refs": [ref]})


def _reference_incentive_upkeep(world):
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
    for pub in world.active_devices():
        incentives.apply_longevity_bonus(world, pub, world.tick)


# the ban and quarantine releases have no floor; they run in both worlds
# because their status writes re-activate devices
_FLOORED_POLLS = (incentives.release_due_bans, anomaly.release_due_quarantines,
                  world_mod._revalidations, world_mod._incentive_upkeep)
_REFERENCE_POLLS = (incentives.release_due_bans,
                    anomaly.release_due_quarantines,
                    _reference_revalidations, _reference_incentive_upkeep)


def _run_polls(world, polls):
    """The polls in ``step`` order; the error that ends the run, if any."""
    try:
        for poll in polls:
            poll(world)
    except GdpError as exc:
        return repr(exc)
    return None


def _due_state(world):
    return (world.tick, dict(world.ban_until), dict(world.quarantines),
            {p: (d.status, d.last_revalidation_tick)
             for p, d in world.devices.items()},
            {p: (r.score, r.last_bonus_tick, world.stake_accounts[p].liquid)
             for p, r in world.reputation_accounts.items()})


def _assert_floors_bound_due_ticks(world):
    """Each floor is at most the due tick of every candidate of its poll,
    overdue ones included."""
    period = world.cfg.onboarding.revalidation_period
    for pub in world.active_devices():
        assert world.longevity_floor <= incentives.longevity_due(world, pub)
        assert world.revalidation_floor <= \
            world.devices[pub].last_revalidation_tick + period


def _act(world, action):
    kind, arg, extra = action
    if kind == "tick":
        world.tick += arg
        return
    pub = list(world.devices)[arg % len(world.devices)]
    if kind == "penalty":
        incentives.apply_penalty(world, pub, extra, cause="fuzz")
    elif kind == "quarantine":
        try:
            anomaly.quarantine(world, pub, reason_ref="fuzz")
        except (AlreadyQuarantined, WrongStage):
            pass
    elif kind == "release":
        anomaly.release_quarantine(world, pub)
    elif kind == "status":
        world.set_status(pub, extra)
    elif kind == "score":
        world.set_score(pub, extra)
    elif kind == "onboard":
        onboard(world, fresh_actor(7000 + len(world.devices)))
    else:  # a compromised key fails its next revalidation
        world.actors[pub].auth_secret = bytes([arg + 1]) * 32


_device = st.integers(min_value=0, max_value=10)
_floor_action = st.one_of(
    # short jumps: a release or bonus falls due between two polls more often
    st.tuples(st.just("tick"), st.integers(min_value=1, max_value=2),
              st.none()),
    st.tuples(st.just("penalty"), _device, st.sampled_from(list(Severity))),
    st.tuples(st.just("quarantine"), _device, st.none()),
    st.tuples(st.just("release"), _device, st.none()),
    st.tuples(st.just("status"), _device, st.sampled_from(list(DeviceStatus))),
    st.tuples(st.just("score"), _device,
              st.sampled_from([0.0, 0.1, 0.22, 0.5, 0.8, 0.95, 1.0])),
    st.tuples(st.just("compromise"), _device, st.none()),
    st.tuples(st.just("onboard"), _device, st.none()),
)


def _short_period_world():
    # a fresh device (score 0.5) qualifies for the bonus, and one Minor
    # penalty (to 0.4) bans it for two ticks
    return mini_world(incentives__longevity_period=3,
                      onboarding__revalidation_period=2,
                      anomaly__review_period=2, incentives__temp_ban_ticks=2,
                      incentives__longevity_min_score=0.5,
                      incentives__ban_threshold=0.45)


@given(st.lists(_floor_action, min_size=10, max_size=40))
@settings(max_examples=300, deadline=None)
def test_floored_polls_match_unconditional_polls(actions):
    """Bans, quarantines, releases, status and score writes, failed
    revalidations, new devices and tick jumps never make a floored poll
    skip work that the unconditional poll does: both worlds log the same
    events and end in the same state after every action, and no floor ever
    passes a candidate's due tick."""
    floored, reference = _short_period_world(), _short_period_world()
    checked = 0  # events already compared
    for action in actions:
        _act(floored, action)
        _act(reference, action)
        error = _run_polls(floored, _FLOORED_POLLS)
        assert error == _run_polls(reference, _REFERENCE_POLLS)
        assert len(floored.log) == len(reference.log)
        assert [encode_event(floored.log[i])
                for i in range(checked, len(floored.log))] == \
            [encode_event(reference.log[i])
             for i in range(checked, len(reference.log))]
        checked = len(floored.log)
        assert _due_state(floored) == _due_state(reference)
        if error is not None:
            break  # a phase that raises ends a simulator run
        _assert_floors_bound_due_ticks(floored)


# --- sleeping txrate streams against the per-sample phase ---


def _per_sample_streams(world, streams):
    """The phase before streams slept: every device active when it starts
    is fed its count through ``feed``, in active-view order."""
    counts = world._txn_counts_this_tick
    for pub in world.active_devices():
        b = streams.get(pub)
        if b is None:
            b = streams[pub] = StreamBaseline(f"txrate:{pub.hex()[:16]}",
                                              world.cfg.anomaly.window)
        world_mod._feed_stream(world, b, pub.hex(), float(counts.get(pub, 0)))
    counts.clear()


def _settled_state(world, pub):
    """A sleeping stream's state once its owed zeros are paid, on a copy so
    that the check leaves the schedule as it was."""
    stream = world.txrate_streams[pub]
    b = copy.deepcopy(stream.baseline)
    if world.devices[pub].status is DeviceStatus.ACTIVE:
        assert world.stream_phases >= stream.settled
        b.push_zeros(world.stream_phases - stream.settled)
    return _baseline_state(b)


# a flip lands before the phase (-1), before the device at that active-view
# position is fed (0..10), or after the phase (11)
_flip = st.tuples(st.integers(min_value=-1, max_value=11),
                  st.integers(min_value=0, max_value=10),
                  st.sampled_from([DeviceStatus.ACTIVE, DeviceStatus.ACTIVE,
                                   DeviceStatus.QUARANTINED,
                                   DeviceStatus.BANNED]))
# quiet ticks, then one tick with its non-zero samples and status flips
_stream_step = st.tuples(
    st.integers(min_value=0, max_value=14),
    st.dictionaries(st.integers(min_value=0, max_value=4),
                    st.sampled_from([-9, -3, -1, 1, 1, 2, 3, 7, 40]),
                    max_size=3),
    st.lists(_flip, max_size=3))


@given(st.lists(_stream_step, min_size=1, max_size=12),
       st.integers(min_value=9, max_value=12),
       st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
       st.sampled_from([0.5, 2.0, 5.0]),
       st.sampled_from([1.0, 2.0, 3.0]))
# evicting the 3 leaves a window into which a 0 moves a CUSUM
@example([(0, {0: 3}, []), (0, {0: -3}, []), (14, {}, [])], 9, 0.0, 0.5, 3.0)
# the window that the 3 fills moves a CUSUM before the 3 is evicted
@example([(2, {0: 3}, []), (14, {}, [])], 9, 0.0, 0.5, 3.0)
# a device leaving ACTIVE after the phase owes that phase's zero
@example([(0, {}, [(11, 0, DeviceStatus.QUARANTINED)]),
          (0, {}, [(-1, 0, DeviceStatus.ACTIVE)])], 9, 0.5, 5.0, 3.0)
# a device turning active mid-phase is first fed on the next tick
@example([(0, {}, [(-1, 0, DeviceStatus.QUARANTINED)]),
          (0, {3: 1}, [(0, 0, DeviceStatus.ACTIVE)]), (3, {}, [])],
         9, 0.5, 5.0, 3.0)
@settings(max_examples=200, deadline=None)
def test_sleeping_streams_match_per_sample_feeds(steps, window, drift, limit,
                                                 z_threshold):
    """The scheduled txrate phase, whose quiet streams sleep, and the
    per-sample phase log the same events and raise the same alerts, and
    every stream, its owed zeros paid, holds the same ring, sums and CUSUMs
    after every tick: through rare non-zero samples, windows that fill
    mid-run, and status flips before, during and after the phase."""
    cfg = dict(anomaly__window=window, anomaly__cusum_drift=drift,
               anomaly__cusum_limit=limit, anomaly__z_threshold=z_threshold)
    sleeping, reference = mini_world(**cfg), mini_world(**cfg)
    reference_streams = {}
    devices = list(sleeping.devices)
    alerts = {id(sleeping): [], id(reference): []}
    current = [None]  # the world whose tick runs
    pending = {}  # id(world) -> (active-view positions, flips due mid-phase)
    real_feed, real_feed_stream = StreamBaseline.feed, world_mod._feed_stream

    def recording_feed(self, *args):
        got = real_feed(self, *args)
        alerts[id(current[0])].extend(_alert_fields(a) for a in got if a)
        return got

    def flip_then_feed(world, b, subject, value):
        position, flips = pending[id(world)]
        if b.stream_id.startswith("txrate:"):
            at = position[bytes.fromhex(subject)]
            while flips and flips[0][0] <= at:
                world.set_status(devices[flips[0][1]], flips.pop(0)[2])
        real_feed_stream(world, b, subject, value)

    def run_tick(world, phase, counts, flips):
        world.tick += 1
        for where, index, status in flips:
            if where < 0:
                world.set_status(devices[index], status)
        world._txn_counts_this_tick.update(
            (devices[index], count) for index, count in counts.items()
            if world.devices[devices[index]].status is DeviceStatus.ACTIVE)
        mid = sorted((f for f in flips if 0 <= f[0] <= 10), key=lambda f: f[0])
        pending[id(world)] = ({p: i for i, p in enumerate(world.active)},
                              mid)
        phase(world)
        # the mid-phase flips no fed position reached, then those after it
        for _, index, status in mid + [f for f in flips if f[0] > 10]:
            world.set_status(devices[index], status)

    checked = 0  # events already compared
    with mock.patch.object(StreamBaseline, "feed", recording_feed), \
            mock.patch.object(world_mod, "_feed_stream", flip_then_feed):
        for quiet, counts, flips in steps:
            for plan in [({}, [])] * quiet + [(counts, flips)]:
                current[0] = sleeping
                run_tick(sleeping, world_mod._per_tick_streams, *plan)
                current[0] = reference
                run_tick(reference, lambda w: _per_sample_streams(
                    w, reference_streams), *plan)
                assert alerts[id(sleeping)] == alerts[id(reference)]
                assert len(sleeping.log) == len(reference.log)
                assert [encode_event(sleeping.log[i])
                        for i in range(checked, len(sleeping.log))] == \
                    [encode_event(reference.log[i])
                     for i in range(checked, len(reference.log))]
                checked = len(sleeping.log)
                for pub in devices:
                    want = reference_streams.get(pub) or StreamBaseline(
                        f"txrate:{pub.hex()[:16]}", window)
                    assert _settled_state(sleeping, pub) == \
                        _baseline_state(want)


_PIECE = metrics._DIGEST_PIECE
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2 ** 70,
                                          max_value=2 ** 70),
    st.sampled_from([-0.0, 0.0, 1e-05, 2.5e-300, 1e300, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6))
_state_keys = st.text(alphabet="abéü中☃\U0001f600\"\\\n",
                      max_size=4)


@st.composite
def _states(draw):
    """A state shaped like ``snapshot_state``'s: scalars and dicts at the
    top, each dict empty, within one piece, at a piece's edge or over
    several; the dicts' values are scalars or small dicts of their own."""
    state = draw(st.dictionaries(_state_keys, _json_scalars, max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        size = draw(st.sampled_from(
            [0, 1, _PIECE - 1, _PIECE, _PIECE + 1, 2 * _PIECE + 3])
            | st.integers(min_value=0, max_value=3 * _PIECE))
        prefix = draw(_state_keys)
        values = draw(st.lists(
            _json_scalars | st.dictionaries(_state_keys, _json_scalars,
                                            max_size=3),
            min_size=1, max_size=8))
        state[draw(_state_keys)] = {
            f"{prefix}{(i * 7919) % (size + 1)}{i}": values[i % len(values)]
            for i in range(size)}
    return state


@given(_states())
@example({})
@example({"devices": {}, "tick": 0})
@example({"é": {"中": -0.0, "a": None}, "b": 1e-05, "c": None})
@settings(max_examples=150, deadline=None)
def test_piecewise_state_digest_equals_the_one_shot_digest(state):
    body = json.dumps(state, sort_keys=True, separators=(",", ":"))
    assert metrics._state_digest(state) == \
        hashlib.sha256(body.encode()).hexdigest()
