"""Reward and penalty calculus over stake and reputation accounts.

All magnitudes live in ``IncentiveConfig``; defaults are chosen so that the
default inspection rate makes cheating a negative-expectation activity (see
``deterrence_margin``). Every mutation of stake or reputation appends
exactly one ``incentive`` event to the world log, which is what the
token-conservation replay check joins against; the log is the one record of
it, so the reward and penalty functions return nothing, and
``apply_longevity_bonus`` only whether it paid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import anomaly
from .errors import InsufficientBond, InvalidProportion, SubjectBanned
from .onboarding import DeviceStatus
from .primitives import float_sum


class IncentiveKind(Enum):
    PERF_REWARD = "PerfReward"
    CONTRIB_REWARD = "ContribReward"
    LONGEVITY_BONUS = "LongevityBonus"
    STAKE_FORFEIT = "StakeForfeit"
    REPUTATION_PENALTY = "ReputationPenalty"
    REPUTATION_RESTORE = "ReputationRestore"
    TEMP_BAN = "TempBan"
    PERM_BAN = "PermBan"
    STAKE_DEPOSIT = "StakeDeposit"
    BOND_POSTED = "BondPosted"
    BOND_REFUNDED = "BondRefunded"


class Severity(Enum):
    MINOR = "Minor"
    MAJOR = "Major"
    CRITICAL = "Critical"


@dataclass(slots=True)
class StakeAccount:
    owner: bytes
    staked: float = 0.0
    liquid: float = 0.0
    offense_count: int = 0


@dataclass(slots=True)
class ReputationAccount:
    owner: bytes
    score: float = 0.5
    onboarded_tick: int = 0
    last_bonus_tick: int = -1   # -1: never received a longevity bonus


def _emit(world, subject: bytes, kind: IncentiveKind, delta: float,
          cause: str) -> None:
    world.log.append(world.tick, "incentive", subject=world.hexes[subject],
                     incentive_kind=kind.value, delta=delta, cause=cause)


def open_account(world, owner: bytes, staked: float, tick: int,
                 initial_reputation: float) -> None:
    """Escrow the onboarding stake deposit and start the reputation record."""
    world.stake_accounts[owner] = StakeAccount(owner=owner, staked=staked)
    world.stake_version += 1
    world.reputation_accounts[owner] = ReputationAccount(
        owner=owner, onboarded_tick=tick)
    world.set_score(owner, initial_reputation)
    world.total_deposited += staked
    _emit(world, owner, IncentiveKind.STAKE_DEPOSIT, staked, "onboarding")


def _is_banned(world, owner: bytes) -> bool:
    profile = world.devices.get(owner)
    return profile is not None and profile.status is DeviceStatus.BANNED


def _adjust_reputation(world, owner: bytes, new_score: float) -> float:
    """Clamp to [0, 1]; banned owners have their score frozen."""
    if not _is_banned(world, owner):
        world.set_score(owner, min(1.0, max(0.0, new_score)))
    return world.reputation_accounts[owner].score


def perf_reward_detail(world, cause: str) -> dict:
    """The detail of a performance reward for ``cause``. Every reward of one
    cause may log this one dict, which the log then owns."""
    return {"incentive_kind": IncentiveKind.PERF_REWARD.value,
            "delta": world.cfg.incentives.perf_reward, "cause": cause}


def apply_performance_reward(world, owner: bytes, cause: str = None, *,
                             detail: dict = None) -> None:
    """Pay ``owner`` the performance reward and log ``detail``, a
    ``perf_reward_detail`` shared with other rewards, or one built for
    ``cause``."""
    if _is_banned(world, owner):
        raise SubjectBanned(owner.hex())
    cfg = world.cfg.incentives
    acct = world.stake_accounts[owner]
    rep = world.reputation_accounts[owner]
    acct.liquid += cfg.perf_reward
    world.total_minted += cfg.perf_reward
    _adjust_reputation(world, owner, rep.score + cfg.perf_rep_bonus)
    if detail is None:
        detail = perf_reward_detail(world, cause)
    world.log.append_row(world.tick, "incentive", "", world.hexes[owner],
                         detail)


def apply_contribution_reward(world, owner: bytes, contributed_units: float,
                              total_units: float, cause: str) -> None:
    if total_units <= 0 or contributed_units < 0 or contributed_units > total_units:
        raise InvalidProportion(
            f"contributed={contributed_units} of total={total_units}")
    if _is_banned(world, owner):
        raise SubjectBanned(owner.hex())
    cfg = world.cfg.incentives
    amount = cfg.contribution_pool * contributed_units / total_units
    acct = world.stake_accounts[owner]
    acct.liquid += amount
    world.total_minted += amount
    _emit(world, owner, IncentiveKind.CONTRIB_REWARD, amount, cause)


def apply_longevity_bonus(world, owner: bytes, tick: int) -> bool:
    """Bonus for long, clean, high-reputation tenure; at most once per period.
    Whether it was paid."""
    cfg = world.cfg.incentives
    acct = world.stake_accounts[owner]
    rep = world.reputation_accounts[owner]
    if _is_banned(world, owner) or tick < longevity_due(world, owner):
        return False
    acct.liquid += cfg.longevity_bonus
    world.total_minted += cfg.longevity_bonus
    rep.last_bonus_tick = tick
    _emit(world, owner, IncentiveKind.LONGEVITY_BONUS, cfg.longevity_bonus,
          "longevity")
    return True


def longevity_due(world, owner: bytes) -> float:
    """The first tick at which ``owner`` could earn a longevity bonus: one
    period after onboarding and after its last bonus. ``math.inf`` while the
    score is below ``longevity_min_score`` and once an offense rules the
    bonus out (offense counts never fall)."""
    rep = world.reputation_accounts[owner]
    if (world.stake_accounts[owner].offense_count != 0
            or rep.score < world.cfg.incentives.longevity_min_score):
        return math.inf
    period = world.cfg.incentives.longevity_period
    if rep.last_bonus_tick >= 0:
        return max(rep.onboarded_tick, rep.last_bonus_tick) + period
    return rep.onboarded_tick + period


def _forfeit(world, acct: StakeAccount, fraction: float, cause: str) -> None:
    amount = acct.staked * fraction
    acct.staked -= amount
    world.stake_version += 1
    world.treasury += amount
    _emit(world, acct.owner, IncentiveKind.STAKE_FORFEIT, -amount, cause)


def apply_penalty(world, owner: bytes, severity: Severity,
                  cause: str) -> None:
    """Graduated penalty: a reputation cut, then any forfeit and ban."""
    cfg = world.cfg.incentives
    acct = world.stake_accounts[owner]
    rep = world.reputation_accounts[owner]

    before = rep.score
    after = _adjust_reputation(world, owner, before * cfg.rep_penalty_factor)
    _emit(world, owner, IncentiveKind.REPUTATION_PENALTY, after - before, cause)

    if severity is Severity.MAJOR:
        fraction = cfg.major_first_forfeit if acct.offense_count == 0 else 1.0
        _forfeit(world, acct, fraction, cause)
        acct.offense_count += 1
    elif severity is Severity.CRITICAL:
        _forfeit(world, acct, 1.0, cause)
        acct.offense_count += 1
        _ban(world, owner, permanent=True, cause=cause)
        return

    if after < cfg.ban_threshold and not _is_banned(world, owner):
        _ban(world, owner, permanent=False, cause=cause)


def _ban(world, owner: bytes, permanent: bool, cause: str) -> None:
    """Ban ``owner`` after ending its open quarantine: one hold per device."""
    anomaly.release_quarantine(world, owner)
    if owner in world.devices:
        world.set_status(owner, DeviceStatus.BANNED)
    if permanent:
        world.ban_until.pop(owner, None)
        _emit(world, owner, IncentiveKind.PERM_BAN, 0.0, cause)
        return
    world.ban_until[owner] = world.tick + world.cfg.incentives.temp_ban_ticks
    _emit(world, owner, IncentiveKind.TEMP_BAN, 0.0, cause)


def release_due_bans(world) -> list[bytes]:
    """Reinstate temp-banned devices whose ban window has elapsed."""
    released = []
    for owner, until in list(world.ban_until.items()):
        if world.tick >= until:
            del world.ban_until[owner]
            profile = world.devices.get(owner)
            if profile is not None and profile.status is DeviceStatus.BANNED:
                world.set_status(owner, DeviceStatus.ACTIVE)
            world.log.append(world.tick, "ban_release", subject=world.hexes[owner])
            released.append(owner)
    return released


def restore_reputation(world, owner: bytes, amount: float,
                       cause: str) -> None:
    """Arbitration remedy for wrongly accused parties."""
    rep = world.reputation_accounts[owner]
    before = rep.score
    after = _adjust_reputation(world, owner, before + amount)
    _emit(world, owner, IncentiveKind.REPUTATION_RESTORE, after - before, cause)


def post_bond(world, owner: bytes, amount: float, cause: str) -> None:
    """Move liquid tokens into the world's bond escrow."""
    acct = world.stake_accounts[owner]
    if acct.liquid < amount:
        raise InsufficientBond(f"{owner.hex()} has {acct.liquid}, needs {amount}")
    acct.liquid -= amount
    world.bond_escrow += amount
    _emit(world, owner, IncentiveKind.BOND_POSTED, -amount, cause)


def settle_bond(world, owner: bytes, amount: float, refunded: bool,
                cause: str) -> None:
    world.bond_escrow -= amount
    if refunded:
        acct = world.stake_accounts[owner]
        acct.liquid += amount
        _emit(world, owner, IncentiveKind.BOND_REFUNDED, amount, cause)
        return
    world.treasury += amount
    _emit(world, owner, IncentiveKind.STAKE_FORFEIT, -amount, cause)


def token_totals(world) -> dict:
    """Conservation identity: held + treasury + escrow == deposited + minted."""
    held = float_sum(a.staked + a.liquid for a in world.stake_accounts.values())
    return {
        "held": held,
        "treasury": world.treasury,
        "bond_escrow": world.bond_escrow,
        "deposited": world.total_deposited,
        "minted": world.total_minted,
    }


def conservation_gap(world) -> float:
    t = token_totals(world)
    return abs(t["held"] + t["treasury"] + t["bond_escrow"]
               - t["deposited"] - t["minted"])


def deterrence_margin(reward_per_cheat: float, detection_prob: float,
                      forfeit_on_catch: float) -> float:
    """Expected per-attempt payoff of cheating; negative means deterred."""
    if not 0.0 <= detection_prob <= 1.0:
        raise ValueError("detection_prob must be in [0, 1]")
    return reward_per_cheat * (1.0 - detection_prob) - forfeit_on_catch * detection_prob


def simulate_cheater_average_payoff(rng, attempts: int, detection_prob: float,
                                    reward: float, forfeit: float) -> float:
    """Long-run average payoff when detection is driven by stochastic checks."""
    from .stochastic import should_inspect
    total = 0.0
    for attempt in range(attempts):
        if should_inspect(rng, detection_prob, attempt, "cheat"):
            total -= forfeit
        else:
            total += reward
    return total / attempts
