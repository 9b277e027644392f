"""Device onboarding: registration through permanent credentials.

The proof-of-legitimacy step is a keyed-digest challenge-response: at
registration the device seals a 32-byte auth secret to the network, and later
proves possession by hashing it with a fresh nonce and the challenged
assertion ids. A real proof system could replace ``challenge_answer`` /
``expected_answer`` without touching the session state machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import (
    BlacklistedDevice,
    ChallengeExpired,
    CredentialExpired,
    DuplicateDevice,
    InsufficientStake,
    MalformedRequest,
    NoActiveChallenge,
    TooEarly,
    WrongStage,
)
from .events import SharedDetails
from .primitives import Digest, digest


class Stage(Enum):
    REGISTERED = "Registered"
    TEMP_CREDENTIALED = "TempCredentialed"
    CHALLENGE_PASSED = "ChallengePassed"
    MFA_PASSED = "MfaPassed"
    BEHAVIOR_SCORED = "BehaviorScored"
    FINALIZED = "Finalized"
    REJECTED = "Rejected"


class DeviceStatus(Enum):
    ACTIVE = "Active"
    QUARANTINED = "Quarantined"
    BANNED = "Banned"


@dataclass(frozen=True)
class RegistrationRequest:
    device_type: str
    model: str
    version: str
    public_key: bytes
    auth_secret: bytes      # sealed to the network at registration
    encrypted: bool = True


@dataclass
class TempCredential:
    token: str
    expiry_tick: int


@dataclass
class Challenge:
    nonce: bytes            # 16 bytes, unique per session
    statements: list
    issued_tick: int
    ttl: int

    def expired(self, tick: int) -> bool:
        return tick > self.issued_tick + self.ttl


@dataclass(slots=True)
class OnboardingSession:
    device: bytes
    stage: Stage
    started_tick: int
    device_type: str
    model: str
    version: str
    enrolled_secret: bytes
    temp_credential: Optional[TempCredential] = None
    challenge: Optional[Challenge] = None
    behavior_score: Optional[float] = None
    mfa_retries: int = 0
    used_nonces: set = field(default_factory=set)


@dataclass(slots=True)
class DeviceProfile:
    public_key: bytes
    device_type: str
    onboarded_tick: int
    credential: str
    status: DeviceStatus
    last_revalidation_tick: int
    operator_group: str = ""
    arbitrator: bool = False
    expertise: frozenset = frozenset()
    enrolled_secret: bytes = b""


# each device kind's ``registered`` detail, shared by its registrations
_REGISTERED_DETAIL = SharedDetails("device_type", "model", "sealed")


def submit_registration(world, request: RegistrationRequest) -> OnboardingSession:
    """Steps 1-2: register and hand out a bounded temporary credential."""
    if not request.model or not request.version or not request.device_type:
        raise MalformedRequest("device_type, model and version must be non-empty")
    if len(request.public_key) != 32 or len(request.auth_secret) != 32:
        raise MalformedRequest("public_key and auth_secret must be 32 bytes")
    if request.public_key in world.devices or request.public_key in world.sessions:
        raise DuplicateDevice(request.public_key.hex())
    if world.hexes[request.public_key] in world.blacklist:
        raise BlacklistedDevice(request.public_key.hex())

    cfg = world.cfg.onboarding
    token = world.rng_onboarding.bytes(16).hex()
    session = OnboardingSession(
        device=request.public_key,
        stage=Stage.TEMP_CREDENTIALED,
        started_tick=world.tick,
        device_type=request.device_type,
        model=request.model,
        version=request.version,
        enrolled_secret=request.auth_secret,
        temp_credential=TempCredential(token, world.tick + cfg.temp_credential_ttl),
    )
    world.sessions[request.public_key] = session
    hexed = world.hexes[request.public_key]
    world.log.append_row(world.tick, "registered", hexed, hexed,
                         _REGISTERED_DETAIL.of(request.device_type,
                                               request.model,
                                               request.encrypted))
    return session


def issue_challenge(world, session: OnboardingSession) -> Challenge:
    """Step 3a: challenge the device with a set of assertion ids."""
    if session.stage is not Stage.TEMP_CREDENTIALED:
        raise WrongStage(f"stage is {session.stage.value}")
    if world.tick > session.temp_credential.expiry_tick:
        raise CredentialExpired(f"expired at {session.temp_credential.expiry_tick}")
    cfg = world.cfg.onboarding
    while True:
        nonce = world.rng_onboarding.bytes(16)
        if nonce not in session.used_nonces:
            break
    session.used_nonces.add(nonce)
    statements = [world.rng_onboarding.below(1 << 31)
                  for _ in range(cfg.statements_per_challenge)]
    session.challenge = Challenge(nonce, statements, world.tick, cfg.challenge_ttl)
    world.log.append(world.tick, "challenge_issued",
                     subject=world.hexes[session.device])
    return session.challenge


def _encode_statements(statements) -> bytes:
    return b"".join(int(s).to_bytes(4, "big") for s in statements)


def challenge_answer(secret: bytes, challenge: Challenge) -> Digest:
    """Prover side: keyed digest over nonce and statement ids."""
    return digest(secret + challenge.nonce + _encode_statements(challenge.statements))


def expected_answer(session: OnboardingSession) -> Digest:
    return challenge_answer(session.enrolled_secret, session.challenge)


# The detail of each challenge and MFA result, shared by every event of it.
_PASSED_DETAIL = {passed: {"passed": passed} for passed in (False, True)}


def verify_challenge_response(world, session: OnboardingSession,
                              response: Digest) -> bool:
    """Step 3b: correct keyed digest advances; anything else rejects."""
    if session.challenge is None:
        raise NoActiveChallenge(session.device.hex())
    if session.challenge.expired(world.tick):
        raise ChallengeExpired(session.device.hex())
    ok = response == expected_answer(session)
    if ok and session.stage is Stage.TEMP_CREDENTIALED:
        session.stage = Stage.CHALLENGE_PASSED
    elif not ok:
        session.stage = Stage.REJECTED
        world.log.append(world.tick, "session_rejected",
                         subject=world.hexes[session.device], reason="challenge")
    world.log.append_row(world.tick, "challenge_result", "",
                         world.hexes[session.device], _PASSED_DETAIL[ok])
    return ok


def totp_code(secret: bytes, window: int) -> int:
    """Six-digit time-based code for one window."""
    return int.from_bytes(digest(secret + window.to_bytes(8, "big",
                                                          signed=True))[:4],
                          "big") % 1_000_000


def verify_mfa(world, session: OnboardingSession, totp: int, tick: int) -> bool:
    """Step 4: TOTP check with one window of skew either side."""
    if session.stage is not Stage.CHALLENGE_PASSED:
        raise WrongStage(f"stage is {session.stage.value}")
    cfg = world.cfg.onboarding
    window = tick // cfg.totp_window
    accepted = {totp_code(session.enrolled_secret, window + off)
                for off in range(-cfg.totp_skew, cfg.totp_skew + 1)}
    ok = totp in accepted
    if ok:
        session.stage = Stage.MFA_PASSED
    else:
        session.mfa_retries += 1
    world.log.append_row(tick, "mfa_result", "", world.hexes[session.device],
                         _PASSED_DETAIL[ok])
    return ok


# Behavior checklist: four equal-weight rules over the onboarding trace.
_RULE_WEIGHT = 0.25
# each score's ``behavior_scored`` detail: a score is 0.25 times a count of
# passed rules, so it is never a negative zero
_SCORED_DETAIL = SharedDetails("score")


def _checklist(world, session: OnboardingSession, trace) -> float:
    cfg = world.cfg.onboarding
    ticks = [t for _, t in trace]
    monotone = all(a <= b for a, b in zip(ticks, ticks[1:]))
    gaps_ok = all(b - a <= cfg.max_action_gap for a, b in zip(ticks, ticks[1:]))
    retries = sum(1 for action, _ in trace if action == "retry")
    retries += session.mfa_retries
    retries_ok = retries <= cfg.max_retries
    latency_ok = True
    last_challenge = None
    for action, t in trace:
        if action == "challenge":
            last_challenge = t
        elif action == "response" and last_challenge is not None:
            if t - last_challenge > cfg.max_challenge_latency:
                latency_ok = False
            last_challenge = None
    passed = [monotone, gaps_ok, retries_ok, latency_ok]
    return _RULE_WEIGHT * sum(passed)


def score_behavior(world, session: OnboardingSession, trace) -> float:
    """Step 5 stand-in: transparent weighted rule checklist, threshold 0.5."""
    if session.stage is not Stage.MFA_PASSED:
        raise WrongStage(f"stage is {session.stage.value}")
    score = _checklist(world, session, trace)
    session.behavior_score = score
    if score >= world.cfg.onboarding.behavior_threshold:
        session.stage = Stage.BEHAVIOR_SCORED
    else:
        session.stage = Stage.REJECTED
        world.log.append(world.tick, "session_rejected",
                         subject=world.hexes[session.device], reason="behavior")
    world.log.append_row(world.tick, "behavior_scored", "",
                         world.hexes[session.device], _SCORED_DETAIL.of(score))
    return score


def finalize_device(world, session: OnboardingSession, stake_deposit: float,
                    operator_group: str = "", arbitrator: bool = False,
                    expertise: frozenset = frozenset()) -> DeviceProfile:
    """Steps 6-7: permanent credentials, profile creation, stake escrow."""
    from . import incentives

    if session.stage is not Stage.BEHAVIOR_SCORED:
        raise WrongStage(f"stage is {session.stage.value}")
    if stake_deposit < world.cfg.onboarding.min_stake:
        raise InsufficientStake(
            f"deposit {stake_deposit} below minimum {world.cfg.onboarding.min_stake}")

    session.stage = Stage.FINALIZED
    session.temp_credential = None  # revoked
    profile = DeviceProfile(
        public_key=session.device,
        device_type=session.device_type,
        onboarded_tick=world.tick,
        credential=world.rng_onboarding.bytes(16).hex(),
        status=DeviceStatus.ACTIVE,
        last_revalidation_tick=world.tick,
        operator_group=operator_group or world.hexes[session.device],
        arbitrator=arbitrator,
        expertise=expertise,
        enrolled_secret=session.enrolled_secret,
    )
    world.devices[session.device] = profile
    world.group_members.setdefault(profile.operator_group, []).append(
        session.device)
    for category in expertise:
        world.experts.setdefault(category, []).append(session.device)
    if arbitrator:
        world.arbitrators.append(session.device)
    world.set_status(session.device, DeviceStatus.ACTIVE)  # joins the active set
    incentives.open_account(world, session.device, stake_deposit, world.tick,
                            world.cfg.onboarding.initial_reputation)
    world.lower_due_floors(session.device)
    world.log.append(world.tick, "device_finalized",
                     subject=world.hexes[session.device],
                     stake=stake_deposit, operator_group=profile.operator_group,
                     arbitrator=arbitrator)
    return profile


def revalidation_due(world, profile: DeviceProfile) -> int:
    """The first tick at which the periodic revalidation of ``profile``
    falls due."""
    period = world.cfg.onboarding.revalidation_period
    return profile.last_revalidation_tick + period


def revalidate_device(world, profile: DeviceProfile, tick: int,
                      force: bool = False) -> bool:
    """Step 8: re-run challenge and TOTP against the device's current secret.

    ``force`` is used by stochastic device inspections, which re-validate
    freshly onboarded devices regardless of the periodic schedule.
    """
    cfg = world.cfg.onboarding
    if profile.status is not DeviceStatus.ACTIVE:
        raise WrongStage(f"device status is {profile.status.value}")
    if not force and tick < revalidation_due(world, profile):
        raise TooEarly(
            f"{tick - profile.last_revalidation_tick} < {cfg.revalidation_period}")

    actor = world.actors[profile.public_key]
    nonce = world.rng_onboarding.bytes(16)
    statements = [world.rng_onboarding.below(1 << 31)
                  for _ in range(cfg.statements_per_challenge)]
    challenge = Challenge(nonce, statements, tick, cfg.challenge_ttl)
    expected = challenge_answer(profile.enrolled_secret, challenge)
    window = tick // cfg.totp_window
    ok = (actor.challenge_answer(challenge) == expected
          and actor.totp(window) == totp_code(profile.enrolled_secret, window))
    if ok:
        profile.last_revalidation_tick = tick
    ref = world.log.append(tick, "revalidation",
                           subject=world.hexes[profile.public_key],
                           passed=ok, forced=force)
    if not ok:
        from .anomaly import quarantine
        quarantine(world, profile.public_key, reason_ref=ref)
    return ok


def record_feedback(world, subject: bytes, feedback: dict) -> int:
    """Step 9: opaque feedback, appended with the current tick."""
    hexed = world.hexes[subject]
    entry = {"tick": world.tick, "subject": hexed, "feedback": feedback}
    world.feedback_log.append(entry)
    world.log.append(world.tick, "feedback", subject=hexed)
    return len(world.feedback_log) - 1
