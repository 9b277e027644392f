"""Benchmark workloads: scenario configs generated from the benchmark seed.

The simulator only ever receives the generated ``ScenarioConfig``; the seed is
an argument of the benchmark. Each workload returns a list of
``(label, config)`` pairs that one repetition runs back to back.
"""

from gdpsim.config import AdversarySpec
from gdpsim.scenarios import BUILTIN_SCENARIOS, get_scenario

# The criterion-1 sweep seed (16 devices, 8 txns/tick) runs 1310 ticks in the
# acceptance suite; 400 ticks keep several repetitions inside one run while the
# workload stays signature- and log-append-heavy.
SWEEP_TICKS = 400
SWEEP_DRAIN = 60

# The criterion-2 population (701 devices) runs 1450 ticks in the acceptance
# suite. 170 ticks keep a repetition near ten seconds while the 100-sample
# stream windows roll for the last 50 arrival ticks. Its ~1500 commits also
# put every seed past the same resize of the 701 per-node committed-id sets
# (at ~1230 ids), which otherwise makes peak RSS jump by 65 MB between seeds.
POPULATION_TICKS = 170
POPULATION_DRAIN = 20


def sweep(seed: int) -> list:
    cfg = get_scenario("collusion_below_quorum")
    cfg.seed = seed
    cfg.txn_arrival_rate = 8.0
    cfg.duration_ticks = SWEEP_TICKS
    cfg.drain_ticks = SWEEP_DRAIN
    return [("sweep", cfg)]


def population(seed: int) -> list:
    cfg = get_scenario("collusion_at_quorum")
    cfg.seed = seed
    cfg.n_honest_devices = 1
    cfg.n_witness_pool = 0
    cfg.adversaries = [AdversarySpec(
        kind="tampering_sender", count=700,
        params={"tamper_rate": 1.0, "collude": True, "stake": 100})]
    cfg.inspection.rate_txn = 0.05
    cfg.inspection.rate_witness_deep = 0.0
    cfg.consensus.random_validators = 12
    cfg.txn_arrival_rate = 10.0
    cfg.duration_ticks = POPULATION_TICKS
    cfg.drain_ticks = POPULATION_DRAIN
    return [("population", cfg)]


def scenarios(seed: int) -> list:
    """All built-ins; benchmark seed 0 keeps every scenario's default seed,
    which is the seed its golden report was recorded with."""
    runs = []
    for name in sorted(BUILTIN_SCENARIOS):
        cfg = get_scenario(name)
        cfg.seed += seed
        runs.append((name, cfg))
    return runs


WORKLOADS = {"sweep": sweep, "population": population, "scenarios": scenarios}

# Colluders at quorum commit tampered transactions by design (acceptance
# criterion 2 asserts it); every other run must report safety_ok.
EXPECTED_BREACH = {"population", "collusion_at_quorum"}


def golden_applies(workload: str, seed: int) -> bool:
    return workload == "scenarios" and seed == 0
