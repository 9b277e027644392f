import pytest

from gdpsim import anomaly, incentives
from gdpsim.errors import InvalidProportion, SubjectBanned
from gdpsim.incentives import (
    IncentiveKind,
    Severity,
    apply_contribution_reward,
    apply_longevity_bonus,
    apply_penalty,
    apply_performance_reward,
    conservation_gap,
    deterrence_margin,
    release_due_bans,
    simulate_cheater_average_payoff,
)
from gdpsim.metrics import replay_matches_world
from gdpsim.onboarding import DeviceStatus
from gdpsim.primitives import SeededRng

from conftest import mini_world


@pytest.fixture
def world():
    return mini_world()


@pytest.fixture
def owner(world):
    return world.active_devices()[0]


def logged_since(world, mark: int) -> list:
    """The ``incentive`` events appended after the first ``mark`` log
    events, as (tick, subject, kind, delta, cause)."""
    return [(ev.tick, bytes.fromhex(ev.subject),
             IncentiveKind(ev.detail["incentive_kind"]), ev.detail["delta"],
             ev.detail["cause"])
            for ev in list(world.log)[mark:] if ev.kind == "incentive"]


def test_performance_reward(world, owner):
    rep = world.reputation_accounts[owner]
    acct = world.stake_accounts[owner]
    world.set_score(owner, 0.50)
    mark = len(world.log)
    assert apply_performance_reward(world, owner, cause="test") is None
    assert rep.score == pytest.approx(0.51)
    assert acct.liquid == pytest.approx(1.0)
    assert logged_since(world, mark) == [
        (world.tick, owner, IncentiveKind.PERF_REWARD,
         world.cfg.incentives.perf_reward, "test")]


def test_performance_reward_clamped(world, owner):
    world.set_score(owner, 0.995)
    apply_performance_reward(world, owner, cause="test")
    assert world.reputation_accounts[owner].score == 1.0


def test_performance_reward_banned(world, owner):
    world.set_status(owner, DeviceStatus.BANNED)
    before = world.stake_accounts[owner].liquid
    with pytest.raises(SubjectBanned):
        apply_performance_reward(world, owner, cause="test")
    assert world.stake_accounts[owner].liquid == before


def test_contribution_proportional(world, owner):
    apply_contribution_reward(world, owner, 5.0, 10.0, cause="epoch")
    assert world.stake_accounts[owner].liquid == pytest.approx(5.0)


def test_contribution_zero(world, owner):
    apply_contribution_reward(world, owner, 0.0, 10.0, cause="epoch")
    assert world.stake_accounts[owner].liquid == 0.0


def test_contribution_invalid_proportion(world, owner):
    with pytest.raises(InvalidProportion):
        apply_contribution_reward(world, owner, 11.0, 10.0, cause="epoch")
    with pytest.raises(InvalidProportion):
        apply_contribution_reward(world, owner, 1.0, 0.0, cause="epoch")


def test_longevity_bonus_earned(world, owner):
    rep = world.reputation_accounts[owner]
    world.set_score(owner, 0.9)
    mark = len(world.log)
    assert apply_longevity_bonus(world, owner, rep.onboarded_tick + 1000) is True
    assert logged_since(world, mark) == [
        (world.tick, owner, IncentiveKind.LONGEVITY_BONUS,
         world.cfg.incentives.longevity_bonus, "longevity")]
    assert world.stake_accounts[owner].liquid == pytest.approx(5.0)


def test_longevity_boundary_tenure(world, owner):
    world.set_score(owner, 0.9)
    tick = world.reputation_accounts[owner].onboarded_tick + 999
    mark = len(world.log)
    assert apply_longevity_bonus(world, owner, tick) is False
    assert logged_since(world, mark) == []


def test_longevity_blocked_by_offense(world, owner):
    rep = world.reputation_accounts[owner]
    world.set_score(owner, 0.9)
    world.stake_accounts[owner].offense_count = 1
    assert apply_longevity_bonus(world, owner, rep.onboarded_tick + 2000) is False


def test_longevity_at_most_once_per_period(world, owner):
    rep = world.reputation_accounts[owner]
    world.set_score(owner, 0.9)
    base = rep.onboarded_tick
    assert apply_longevity_bonus(world, owner, base + 1000) is True
    assert apply_longevity_bonus(world, owner, base + 1500) is False
    assert apply_longevity_bonus(world, owner, base + 2000) is True


def test_minor_penalty_reputation_only(world, owner):
    rep = world.reputation_accounts[owner]
    acct = world.stake_accounts[owner]
    world.set_score(owner, 0.5)
    apply_penalty(world, owner, Severity.MINOR, cause="test")
    assert rep.score == pytest.approx(0.4)
    assert acct.staked == pytest.approx(100.0)
    assert acct.offense_count == 0


def test_major_penalty_first_offense(world, owner):
    rep = world.reputation_accounts[owner]
    acct = world.stake_accounts[owner]
    world.set_score(owner, 0.5)
    apply_penalty(world, owner, Severity.MAJOR, cause="test")
    assert acct.staked == pytest.approx(50.0)
    assert rep.score == pytest.approx(0.4)
    assert acct.offense_count == 1
    assert world.treasury == pytest.approx(50.0)


def test_major_penalty_repeat_full_forfeit(world, owner):
    acct = world.stake_accounts[owner]
    apply_penalty(world, owner, Severity.MAJOR, cause="first")
    apply_penalty(world, owner, Severity.MAJOR, cause="second")
    assert acct.staked == 0.0
    assert world.treasury == pytest.approx(100.0)


def test_critical_penalty_permban(world, owner):
    acct = world.stake_accounts[owner]
    mark = len(world.log)
    assert apply_penalty(world, owner, Severity.CRITICAL, cause="test") is None
    assert acct.staked == 0.0
    assert world.devices[owner].status is DeviceStatus.BANNED
    assert owner not in world.ban_until  # permanent: never released
    assert [e[2] for e in logged_since(world, mark)] == [
        IncentiveKind.REPUTATION_PENALTY, IncentiveKind.STAKE_FORFEIT,
        IncentiveKind.PERM_BAN]
    world.tick += 10 * world.cfg.incentives.temp_ban_ticks
    assert release_due_bans(world) == []
    assert world.devices[owner].status is DeviceStatus.BANNED


def test_tempban_threshold_derived(world, owner):
    # 0.24 * 0.8 = 0.192 < 0.2 threshold: the penalty trips a temp ban
    rep = world.reputation_accounts[owner]
    world.set_score(owner, 0.24)
    mark = len(world.log)
    apply_penalty(world, owner, Severity.MINOR, cause="test")
    assert rep.score == pytest.approx(0.192)
    assert [e[2] for e in logged_since(world, mark)] == [
        IncentiveKind.REPUTATION_PENALTY, IncentiveKind.TEMP_BAN]
    assert world.devices[owner].status is DeviceStatus.BANNED
    assert world.ban_until[owner] == world.tick + world.cfg.incentives.temp_ban_ticks


def test_tempban_release(world, owner):
    world.set_score(owner, 0.24)
    apply_penalty(world, owner, Severity.MINOR, cause="test")
    world.tick = world.ban_until[owner]
    released = release_due_bans(world)
    assert owner in released
    assert world.devices[owner].status is DeviceStatus.ACTIVE


def test_ban_ends_an_open_quarantine():
    """A device holds one quarantine or one ban at a time: a temp ban that
    ends before the review period leaves no open quarantine behind, so the
    reinstated device can be quarantined again."""
    world = mini_world(incentives__temp_ban_ticks=20,
                       anomaly__review_period=100)
    owner = world.active_devices()[0]
    anomaly.quarantine(world, owner, reason_ref="test")
    world.tick += 1
    while world.devices[owner].status is not DeviceStatus.BANNED:
        apply_penalty(world, owner, Severity.MINOR, cause="test")
    ban_tick = world.tick
    assert owner not in world.quarantines
    logged = [(ev.detail.get("incentive_kind", ev.kind), ev.tick)
              for ev in world.log if ev.subject == owner.hex()]
    assert [kind for kind, _ in logged].count("quarantine_release") == 1
    assert logged[-2:] == [("quarantine_release", ban_tick),
                           ("TempBan", ban_tick)]
    assert world.ban_until[owner] == ban_tick + 20
    while world.tick < ban_tick + 20:
        world.tick += 1
        release_due_bans(world)
        anomaly.release_due_quarantines(world)
    assert world.devices[owner].status is DeviceStatus.ACTIVE
    assert owner not in world.quarantines
    anomaly.quarantine(world, owner, reason_ref="again")
    assert world.devices[owner].status is DeviceStatus.QUARANTINED
    assert replay_matches_world(world) == {}


def test_banned_score_frozen(world, owner):
    apply_penalty(world, owner, Severity.CRITICAL, cause="test")
    frozen = world.reputation_accounts[owner].score
    apply_penalty(world, owner, Severity.MINOR, cause="again")
    assert world.reputation_accounts[owner].score == frozen


def test_reputation_bounds_fuzzed(world, owner):
    rng = SeededRng(60)
    rep = world.reputation_accounts[owner]
    for _ in range(500):
        roll = rng.below(4)
        try:
            if roll == 0:
                apply_performance_reward(world, owner, cause="fuzz")
            elif roll == 1:
                apply_penalty(world, owner, Severity.MINOR, cause="fuzz")
            elif roll == 2:
                apply_penalty(world, owner, Severity.MAJOR, cause="fuzz")
            else:
                incentives.restore_reputation(world, owner, 0.1, cause="fuzz")
        except SubjectBanned:
            release_due_bans(world)
            world.set_status(owner, DeviceStatus.ACTIVE)
            world.ban_until.pop(owner, None)
        assert 0.0 <= rep.score <= 1.0


def test_token_conservation_under_events(world):
    rng = SeededRng(61)
    owners = world.active_devices()
    for i in range(300):
        owner = owners[rng.below(len(owners))]
        if world.devices[owner].status is not DeviceStatus.ACTIVE:
            continue
        roll = rng.below(4)
        if roll == 0:
            apply_performance_reward(world, owner, cause="fuzz")
        elif roll == 1:
            apply_penalty(world, owner, Severity.MINOR, cause="fuzz")
        elif roll == 2:
            apply_penalty(world, owner, Severity.MAJOR, cause="fuzz")
        else:
            apply_contribution_reward(world, owner, 1.0, 2.0, cause="fuzz")
        assert conservation_gap(world) < 1e-9


def test_every_mutation_has_exactly_one_event(world, owner):
    baseline_events = len([e for e in world.log if e.kind == "incentive"])
    apply_performance_reward(world, owner, cause="a")
    apply_penalty(world, owner, Severity.MAJOR, cause="b")
    events = [e for e in world.log if e.kind == "incentive"]
    # reward: 1 event; major: reputation + forfeit = 2 events
    assert len(events) - baseline_events == 3


def test_deterrence_margin_arithmetic():
    # hand oracle: 1*(1-p) - F*p
    assert deterrence_margin(1.0, 0.05, 50.0) == pytest.approx(
        1.0 * 0.95 - 50.0 * 0.05)
    assert deterrence_margin(1.0, 0.05, 50.0) == pytest.approx(-1.55)


def test_deterrence_no_forfeit_never_deterred():
    assert deterrence_margin(1.0, 0.3, 0.0) == pytest.approx(0.7)
    assert deterrence_margin(1.0, 0.3, 0.0) > 0


def test_deterrence_certain_detection():
    assert deterrence_margin(1.0, 1.0, 50.0) == pytest.approx(-50.0)


def test_simulated_cheater_converges_to_margin():
    # 1e6 attempts puts the 5% band at ~7 standard errors of the mean
    rng = SeededRng(62)
    avg = simulate_cheater_average_payoff(rng, attempts=1_000_000,
                                          detection_prob=0.05,
                                          reward=1.0, forfeit=50.0)
    margin = deterrence_margin(1.0, 0.05, 50.0)
    assert abs(avg - margin) / abs(margin) < 0.05
