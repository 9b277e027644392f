import pytest

from gdpsim.actors import DeviceActor
from gdpsim.config import AdversarySpec, ScenarioConfig
from gdpsim.primitives import SeededRng
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
