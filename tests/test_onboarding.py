import pytest

from gdpsim import onboarding
from gdpsim.errors import (
    ChallengeExpired,
    CredentialExpired,
    DuplicateDevice,
    InsufficientStake,
    MalformedRequest,
    NotAuthorized,
    TooEarly,
    WrongStage,
)
from gdpsim.onboarding import DeviceStatus, Stage
from gdpsim.primitives import SeededRng, digest
from gdpsim.scenarios import get_scenario
from gdpsim.transmission import submit_transaction
from gdpsim.world import build_world

from conftest import fresh_actor, mini_world, onboard, population_cfg


def make_request(actor, **kwargs):
    fields = dict(device_type="sensor", model="gdp-node", version="1.0.0",
                  public_key=actor.pub, auth_secret=actor.auth_secret)
    fields.update(kwargs)
    return onboarding.RegistrationRequest(**fields)


@pytest.fixture
def world():
    return mini_world()


@pytest.fixture
def actor():
    return fresh_actor(4242)


def test_registration_happy_path(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    assert session.stage is Stage.TEMP_CREDENTIALED
    assert session.temp_credential is not None
    assert session.temp_credential.expiry_tick == \
        world.tick + world.cfg.onboarding.temp_credential_ttl


def test_duplicate_registration(world, actor):
    onboarding.submit_registration(world, make_request(actor))
    with pytest.raises(DuplicateDevice):
        onboarding.submit_registration(world, make_request(actor))


def test_registration_of_onboarded_key_rejected(world):
    existing = next(iter(world.devices))
    request = onboarding.RegistrationRequest(
        device_type="sensor", model="m", version="1", public_key=existing,
        auth_secret=bytes(32))
    with pytest.raises(DuplicateDevice):
        onboarding.submit_registration(world, request)


def test_only_sessions_not_finalized_are_kept():
    """``finalize_device`` drops its session, whose profile refuses a second
    registration from then on: after ``build_world`` the criterion-2
    population keeps no session, and ``sybil_flood`` exactly its 1,000
    rejected ones. A finalized or a rejected key still cannot register
    again."""
    assert build_world(population_cfg(60, 20)).sessions == {}
    world = build_world(get_scenario("sybil_flood"))
    assert len(world.sessions) == 1000
    assert all(session.stage is Stage.REJECTED
               for session in world.sessions.values())
    for key in (next(iter(world.devices)), next(iter(world.sessions))):
        request = onboarding.RegistrationRequest(
            device_type="sensor", model="m", version="1", public_key=key,
            auth_secret=bytes(32))
        with pytest.raises(DuplicateDevice):
            onboarding.submit_registration(world, request)


def test_empty_model_rejected(world, actor):
    with pytest.raises(MalformedRequest):
        onboarding.submit_registration(world, make_request(actor, model=""))


def test_blacklist_rejected(actor):
    world = mini_world(blacklist=[actor.pub.hex()])
    with pytest.raises(onboarding.BlacklistedDevice):
        onboarding.submit_registration(world, make_request(actor))


def test_blacklist_of_several_entries_given_as_a_tuple(actor):
    listed = [fresh_actor(seed) for seed in (1, 2)]
    world = mini_world(blacklist=(listed[0].pub.hex(), actor.pub.hex(),
                                  listed[1].pub.hex()))
    for device in (listed[0], actor, listed[1]):
        with pytest.raises(onboarding.BlacklistedDevice):
            onboarding.submit_registration(world, make_request(device))
    session = onboarding.submit_registration(world,
                                             make_request(fresh_actor(3)))
    assert session.stage is Stage.TEMP_CREDENTIALED


def test_issue_challenge(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    challenge = onboarding.issue_challenge(world, session)
    assert len(challenge.nonce) == 16
    assert challenge.ttl == world.cfg.onboarding.challenge_ttl
    second = onboarding.issue_challenge(world, session)
    assert second.nonce != challenge.nonce  # unique per session


def test_issue_challenge_wrong_stage(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    session.stage = Stage.FINALIZED
    with pytest.raises(WrongStage):
        onboarding.issue_challenge(world, session)


def test_issue_challenge_credential_expired(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    world.tick = session.temp_credential.expiry_tick + 1
    with pytest.raises(CredentialExpired):
        onboarding.issue_challenge(world, session)


def test_challenge_response_happy(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    challenge = onboarding.issue_challenge(world, session)
    assert onboarding.verify_challenge_response(
        world, session, actor.challenge_answer(challenge))
    assert session.stage is Stage.CHALLENGE_PASSED


def test_challenge_response_garbage_rejects_session(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    onboarding.issue_challenge(world, session)
    assert not onboarding.verify_challenge_response(world, session, b"\x5a" * 32)
    assert session.stage is Stage.REJECTED


def test_challenge_replay_fails(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    first = onboarding.issue_challenge(world, session)
    old_answer = actor.challenge_answer(first)
    second = onboarding.issue_challenge(world, session)  # re-issue, new nonce
    assert second.nonce != first.nonce
    assert not onboarding.verify_challenge_response(world, session, old_answer)
    assert session.stage is Stage.REJECTED


def test_challenge_requires_active_challenge(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    with pytest.raises(onboarding.NoActiveChallenge):
        onboarding.verify_challenge_response(world, session, b"\x00" * 32)


def test_challenge_expiry(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    challenge = onboarding.issue_challenge(world, session)
    world.tick = challenge.issued_tick + challenge.ttl + 1
    with pytest.raises(ChallengeExpired):
        onboarding.verify_challenge_response(
            world, session, actor.challenge_answer(challenge))


def _session_at_challenge_passed(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    challenge = onboarding.issue_challenge(world, session)
    onboarding.verify_challenge_response(world, session,
                                         actor.challenge_answer(challenge))
    return session


def test_mfa_current_window(world, actor):
    session = _session_at_challenge_passed(world, actor)
    tick = 95
    window = tick // world.cfg.onboarding.totp_window
    assert onboarding.verify_mfa(world, session,
                                 onboarding.totp_code(actor.auth_secret, window),
                                 tick)
    assert session.stage is Stage.MFA_PASSED


def test_mfa_previous_window_slack(world, actor):
    session = _session_at_challenge_passed(world, actor)
    tick = 95
    window = tick // world.cfg.onboarding.totp_window
    assert onboarding.verify_mfa(world, session,
                                 onboarding.totp_code(actor.auth_secret, window - 1),
                                 tick)


def test_mfa_two_windows_back_rejected(world, actor):
    # independent oracle: derive codes for each window with the repo's
    # derivation and confirm the w-2 code is outside the accepted set
    session = _session_at_challenge_passed(world, actor)
    tick = 185
    window = tick // world.cfg.onboarding.totp_window
    codes = {off: onboarding.totp_code(actor.auth_secret, window + off)
             for off in range(-3, 3)}
    accepted = {codes[-1], codes[0], codes[1]}
    assert codes[-2] not in accepted
    assert not onboarding.verify_mfa(world, session, codes[-2], tick)
    assert session.stage is Stage.CHALLENGE_PASSED  # retry allowed
    assert session.mfa_retries == 1


def test_mfa_wrong_stage(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    with pytest.raises(WrongStage):
        onboarding.verify_mfa(world, session, 123456, 10)


def _session_at_mfa_passed(world, actor):
    session = _session_at_challenge_passed(world, actor)
    tick = world.tick
    window = tick // world.cfg.onboarding.totp_window
    onboarding.verify_mfa(world, session,
                          onboarding.totp_code(actor.auth_secret, window), tick)
    return session


def test_behavior_perfect_trace(world, actor):
    session = _session_at_mfa_passed(world, actor)
    trace = [("challenge", 0), ("response", 2), ("ack", 5)]
    assert onboarding.score_behavior(world, session, trace) == 1.0
    assert session.stage is Stage.BEHAVIOR_SCORED


def test_behavior_all_rules_fail(world, actor):
    session = _session_at_mfa_passed(world, actor)
    # out-of-order ticks, a huge gap, a retry, and slow challenge response
    trace = [("challenge", 50), ("retry", 10), ("response", 99)]
    assert onboarding.score_behavior(world, session, trace) == 0.0
    assert session.stage is Stage.REJECTED


def test_behavior_half_weight_passes(world, actor):
    session = _session_at_mfa_passed(world, actor)
    # monotone and gap rules pass; retry and challenge-latency rules fail
    trace = [("challenge", 0), ("retry", 1), ("response", 10)]
    score = onboarding.score_behavior(world, session, trace)
    assert score == 0.5
    assert session.stage is Stage.BEHAVIOR_SCORED  # threshold inclusive


def _session_scored(world, actor):
    session = _session_at_mfa_passed(world, actor)
    onboarding.score_behavior(world, session, [("challenge", 0), ("response", 1)])
    return session


def test_finalize_happy(world, actor):
    session = _session_scored(world, actor)
    profile = onboarding.finalize_device(world, session, 100.0)
    assert profile.status is DeviceStatus.ACTIVE
    assert session.temp_credential is None
    assert world.stake_accounts[actor.pub].staked == 100.0


def test_finalize_boundary_stake(world, actor):
    session = _session_scored(world, actor)
    with pytest.raises(InsufficientStake):
        onboarding.finalize_device(world, session, 99.0)
    profile = onboarding.finalize_device(world, session, 100.0)
    assert profile.status is DeviceStatus.ACTIVE


def test_finalize_wrong_stage(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    with pytest.raises(WrongStage):
        onboarding.finalize_device(world, session, 100.0)


def test_rejected_session_never_produces_profile(world, actor):
    session = onboarding.submit_registration(world, make_request(actor))
    onboarding.issue_challenge(world, session)
    onboarding.verify_challenge_response(world, session, b"\x00" * 32)
    assert session.stage is Stage.REJECTED
    for stage_op in (lambda: onboarding.issue_challenge(world, session),
                     lambda: onboarding.verify_mfa(world, session, 0, 0),
                     lambda: onboarding.score_behavior(world, session, []),
                     lambda: onboarding.finalize_device(world, session, 100.0)):
        with pytest.raises(WrongStage):
            stage_op()
    assert actor.pub not in world.devices


def test_temp_credential_never_authenticates_post_onboarding(world, actor):
    onboarding.submit_registration(world, make_request(actor))
    receiver = next(iter(world.devices))
    with pytest.raises(NotAuthorized):
        submit_transaction(world, actor.pub, receiver, digest(b"payload"))


def test_revalidation_too_early(world):
    pub = next(iter(world.devices))
    profile = world.devices[pub]
    tick = profile.last_revalidation_tick + world.cfg.onboarding.revalidation_period - 1
    with pytest.raises(TooEarly):
        onboarding.revalidate_device(world, profile, tick)


def test_revalidation_honest_passes(world):
    pub = next(iter(world.devices))
    profile = world.devices[pub]
    tick = profile.last_revalidation_tick + world.cfg.onboarding.revalidation_period
    world.tick = tick
    assert onboarding.revalidate_device(world, profile, tick)
    assert profile.last_revalidation_tick == tick


def test_revalidation_compromised_quarantines(world):
    pub = next(iter(world.devices))
    profile = world.devices[pub]
    world.actors[pub].auth_secret = SeededRng(31337).bytes(32)  # swapped key
    tick = profile.last_revalidation_tick + world.cfg.onboarding.revalidation_period
    world.tick = tick
    assert not onboarding.revalidate_device(world, profile, tick)
    assert profile.status is DeviceStatus.QUARANTINED


def test_no_profile_without_full_stage_sequence(world):
    # replay the build's event log: every finalized device passed through
    # challenge, mfa, and behavior scoring
    finalized = {ev.subject for ev in world.log if ev.kind == "device_finalized"}
    assert finalized
    for device in finalized:
        kinds = [ev.kind for ev in world.log
                 if ev.subject == device
                 and ev.kind in ("challenge_result", "mfa_result",
                                 "behavior_scored", "device_finalized")]
        assert kinds == ["challenge_result", "mfa_result", "behavior_scored",
                         "device_finalized"]
