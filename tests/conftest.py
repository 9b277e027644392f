import pytest

from gdpsim import primitives
from gdpsim.actors import DeviceActor
from gdpsim.config import AdversarySpec, ScenarioConfig
from gdpsim.primitives import SeededRng, Signature
from gdpsim.scenarios import get_scenario
from gdpsim.world import World, build_world, onboard_actor


def pytest_addoption(parser):
    parser.addoption("--update-goldens", action="store_true", default=False,
                     help="rewrite golden report files from current behavior")


@pytest.fixture
def update_goldens(request):
    return request.config.getoption("--update-goldens")


def mini_cfg(**overrides) -> ScenarioConfig:
    """Small, fast world: 3 clients + 8 witnesses, short run."""
    cfg = ScenarioConfig(name="mini", seed=99, duration_ticks=60,
                         drain_ticks=20, txn_arrival_rate=1.0,
                         n_honest_devices=3, n_witness_pool=8)
    for key, value in overrides.items():
        if "__" in key:
            section, leaf = key.split("__", 1)
            setattr(getattr(cfg, section), leaf, value)
        else:
            setattr(cfg, key, value)
    return cfg


def population_cfg(duration_ticks: int, drain_ticks: int) -> ScenarioConfig:
    """Criterion 2's population: 700 colluding tampering senders and one
    honest client at the quorum boundary, inspections at p=0.05."""
    cfg = get_scenario("collusion_at_quorum")
    cfg.n_honest_devices = 1
    cfg.n_witness_pool = 0
    cfg.adversaries = [AdversarySpec(
        kind="tampering_sender", count=700,
        params={"tamper_rate": 1.0, "collude": True, "stake": 100})]
    cfg.inspection.rate_txn = 0.05
    cfg.inspection.rate_witness_deep = 0.0
    cfg.consensus.random_validators = 12
    cfg.txn_arrival_rate = 10.0
    cfg.duration_ticks = duration_ticks
    cfg.drain_ticks = drain_ticks
    return cfg


def mini_world(**overrides) -> World:
    return build_world(mini_cfg(**overrides))


def fresh_actor(seed: int = 7777, role: str = "honest_client") -> DeviceActor:
    return DeviceActor(SeededRng(seed).derive("fresh", seed), role=role)


def onboard(world: World, actor: DeviceActor, stake: float = None,
            group: str = "", **kwargs):
    if stake is None:
        stake = world.cfg.onboarding.min_stake
    return onboard_actor(world, actor, stake, group or actor.pub.hex(), **kwargs)


@pytest.fixture
def world():
    return mini_world()


def record_signature_reads(monkeypatch) -> dict:
    """From now on, every ``Signature`` whose ``sig`` is read, by id; a read
    of an unread signature from ``sign`` is an Ed25519 signing."""
    read = {}
    real = Signature.sig

    def recording(self):
        read[id(self)] = self
        return real.fget(self)

    monkeypatch.setattr(Signature, "sig", property(recording))
    return read


class _CountingPublicKey:
    """Stands in for a parsed public key; records every real verification."""

    def __init__(self, key, verified: list):
        self._key, self._verified = key, verified

    def verify(self, signature: bytes, message: bytes) -> None:
        self._verified.append(message)
        self._key.verify(signature, message)


def count_ed25519_verifies(monkeypatch) -> list:
    """From now on, the message of every Ed25519 verification."""
    verified = []
    parse = primitives._public
    monkeypatch.setattr(primitives, "_public", lambda public: _CountingPublicKey(
        parse(public), verified))
    return verified
