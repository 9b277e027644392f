import ast
import json
from pathlib import Path

import pytest

import gdpsim
from gdpsim import metrics
from gdpsim.config import AdversarySpec, ScenarioConfig
from gdpsim.errors import InvalidConfig
from gdpsim.metrics import (
    derive_metrics,
    replay_matches_world,
    snapshot_digest,
)
from gdpsim.onboarding import DeviceStatus
from gdpsim.scenarios import BUILTIN_SCENARIOS, get_scenario
from gdpsim.transmission import TxnStatus
from gdpsim.world import build_world, run_world, step

from conftest import mini_cfg


def test_build_onboards_all_honest():
    cfg = mini_cfg(n_honest_devices=4, n_witness_pool=6)
    world = build_world(cfg)
    assert len(world.active_devices()) == 10
    assert world.canonical.height == 0  # ledger at genesis
    finalized = [e for e in world.log if e.kind == "device_finalized"]
    assert len(finalized) == 10


def test_build_rejects_thin_witness_pool():
    cfg = mini_cfg(n_honest_devices=2, n_witness_pool=1)  # 3 devices, k=5
    with pytest.raises(InvalidConfig) as err:
        build_world(cfg)
    assert "n_witness_pool" in str(err.value)


def test_build_deterministic_snapshot():
    a = build_world(mini_cfg(seed=123))
    b = build_world(mini_cfg(seed=123))
    assert snapshot_digest(a) == snapshot_digest(b)
    c = build_world(mini_cfg(seed=124))
    assert snapshot_digest(a) != snapshot_digest(c)


def test_empty_world_heartbeats_only():
    cfg = ScenarioConfig(name="empty", seed=1, duration_ticks=10,
                         drain_ticks=0, txn_arrival_rate=0.0,
                         n_honest_devices=0, n_witness_pool=0)
    world = build_world(cfg)
    for _ in range(5):
        step(world)
    kinds = {e.kind for e in world.log if e.tick > 0}
    assert kinds == {"heartbeat"}


def test_micro_liveness_single_txn():
    cfg = mini_cfg(txn_arrival_rate=0.0, duration_ticks=80, drain_ticks=0)
    world = build_world(cfg)
    # inject exactly one transaction through the public pipeline
    world.cfg.txn_arrival_rate = 1.0
    step(world)
    world.cfg.txn_arrival_rate = 0.0
    created = [e for e in world.log if e.kind == "txn_created"]
    assert len(created) == 1
    bound = metrics.liveness_bound(cfg)
    for _ in range(bound + 1):
        step(world)
    tid = bytes.fromhex(created[0].subject)
    assert world.transactions[tid].status is TxnStatus.COMMITTED
    committed = next(e for e in world.log if e.kind == "txn_committed")
    assert committed.detail["latency"] <= bound


def test_run_deterministic_event_log():
    cfg_a = get_scenario("baseline")
    cfg_a.duration_ticks, cfg_a.drain_ticks = 120, 40
    world_a = run_world(cfg_a)
    cfg_b = get_scenario("baseline")
    cfg_b.duration_ticks, cfg_b.drain_ticks = 120, 40
    world_b = run_world(cfg_b)
    events_a = [(e.tick, e.kind, e.actor, e.subject,
                 json.dumps(e.detail, sort_keys=True)) for e in world_a.log]
    events_b = [(e.tick, e.kind, e.actor, e.subject,
                 json.dumps(e.detail, sort_keys=True)) for e in world_b.log]
    assert events_a == events_b
    assert snapshot_digest(world_a) == snapshot_digest(world_b)
    assert derive_metrics(world_a.log, cfg_a) == derive_metrics(world_b.log, cfg_b)


def test_replay_fold_matches_live_state():
    for name in BUILTIN_SCENARIOS:
        cfg = get_scenario(name)
        cfg.duration_ticks = min(cfg.duration_ticks, 150)
        world = run_world(cfg)
        mismatches = replay_matches_world(world)
        assert mismatches == {}, f"{name}: {mismatches}"


def test_replay_fold_catches_a_foreign_head():
    import dataclasses
    from gdpsim.primitives import digest
    cfg = get_scenario("baseline")
    cfg.duration_ticks, cfg.drain_ticks = 60, 20
    world = run_world(cfg)
    tip = world.canonical.blocks[-1]
    world.canonical.blocks[-1] = dataclasses.replace(
        tip, block_digest=digest(b"foreign"))
    mismatches = replay_matches_world(world)
    at_tip = {f"head:{p.hex()}" for p, h in world.heights.items()
              if h == tip.height}
    assert at_tip and set(mismatches) == at_tip | {"canonical_head"}


def test_replay_fold_catches_altered_accounts():
    cfg = get_scenario("baseline")
    cfg.duration_ticks, cfg.drain_ticks = 60, 20
    world = run_world(cfg)
    assert replay_matches_world(world) == {}
    first, second = sorted(world.reputation_accounts)[:2]
    world.reputation_accounts[first].score -= 0.25
    world.stake_accounts[second].offense_count += 1
    world.total_minted += 1.0
    world.total_deposited += 1.0
    world.bond_escrow += 1.0
    assert set(replay_matches_world(world)) == {
        f"score:{first.hex()}", f"offenses:{second.hex()}",
        "total_minted", "total_deposited", "bond_escrow"}


def test_metrics_rederivable_from_written_log(tmp_path):
    from gdpsim.events import read_events_jsonl, write_events_jsonl
    cfg = get_scenario("baseline")
    cfg.duration_ticks, cfg.drain_ticks = 120, 40
    world = run_world(cfg)
    report = derive_metrics(world.log, cfg)
    path = tmp_path / "events.jsonl"
    write_events_jsonl(world.log, path)
    reread = read_events_jsonl(path)
    assert derive_metrics(reread, cfg) == report


def test_closed_world_ground_truth_audit():
    """Corrupting the metrics-side tampered annotation must not change any
    protocol decision, only the annotation itself."""
    def run_with_scrambler(scramble):
        cfg = get_scenario("collusion_below_quorum")
        cfg.duration_ticks, cfg.drain_ticks = 120, 40
        world = build_world(cfg)
        if scramble:
            world.gt_scrambler = lambda tid, actual: not actual
        for _ in range(cfg.duration_ticks):
            step(world)
        return world

    honest = run_with_scrambler(False)
    scrambled = run_with_scrambler(True)
    assert len(honest.log) == len(scrambled.log)
    for ev_h, ev_s in zip(honest.log, scrambled.log):
        assert (ev_h.tick, ev_h.kind, ev_h.actor, ev_h.subject) == \
            (ev_s.tick, ev_s.kind, ev_s.actor, ev_s.subject)
        dh, ds = dict(ev_h.detail), dict(ev_s.detail)
        if ev_h.kind == "txn_created":
            assert dh.pop("tampered") != ds.pop("tampered")
        assert dh == ds
    assert snapshot_digest(honest) == snapshot_digest(scrambled)


def test_sybil_flood_zero_stake_never_activates():
    cfg = mini_cfg()
    cfg.adversaries = [AdversarySpec(kind="sybil_flood", count=1000,
                                     params={"stake": 0})]
    world = build_world(cfg)
    sybils = [p for p, a in world.actors.items() if a.role == "sybil"]
    assert sybils == []  # none finalized
    rejected = [e for e in world.log if e.kind == "session_rejected"
                and e.detail.get("reason") == "stake"]
    assert len(rejected) == 1000
    assert len(world.active_devices()) == 11  # the honest population only



def test_sybil_with_stake_gains_only_formula_weight():
    from gdpsim.consensus import active_stake_total, vote_weight
    cfg = mini_cfg()
    cfg.adversaries = [AdversarySpec(kind="sybil_flood", count=20,
                                     params={"stake": 100})]
    world = build_world(cfg)
    sybils = [p for p, a in world.actors.items() if a.role == "sybil"]
    assert len(sybils) == 20
    total_stake = active_stake_total(world)
    sw = cfg.consensus.stake_weight
    for sybil in sybils:
        expected = sw * world.stake_accounts[sybil].staked / total_stake \
            + (1 - sw) * world.reputation_accounts[sybil].score
        assert vote_weight(world, sybil) == pytest.approx(expected)
    # a sybil's weight equals any equally staked honest device's weight:
    honest = [p for p, a in world.actors.items() if a.role == "honest_client"]
    assert vote_weight(world, sybils[0]) == pytest.approx(
        vote_weight(world, honest[0]))


def test_key_compromise_scenario_quarantines_victim():
    cfg = get_scenario("key_compromise")
    world = run_world(cfg)
    compromised = [e for e in world.log if e.kind == "key_compromised"]
    assert len(compromised) == 1
    victim = compromised[0].subject
    failures = [e for e in world.log if e.kind == "revalidation"
                and e.subject == victim and not e.detail["passed"]]
    assert failures
    quarantined = [e for e in world.log if e.kind == "quarantine"
                   and e.subject == victim]
    assert quarantined


def test_forged_sync_scenario_catches_propagator():
    cfg = get_scenario("forged_sync")
    world = run_world(cfg)
    failed = [e for e in world.log if e.kind == "inspection"
              and e.detail["target_kind"] == "SyncBatch"
              and not e.detail["passed"]]
    assert failed
    forger = [p for p, a in world.actors.items()
              if a.role == "forged_sync_node"][0]
    assert world.devices[forger].status is DeviceStatus.BANNED
    # the victim still caught up from an honest source afterwards
    heights = {world.heights[p] for p in world.active_devices()}
    assert len(heights) == 1


def test_quarantine_exclusion_is_total():
    cfg = get_scenario("key_compromise")
    world = run_world(cfg)
    windows = {}
    for ev in world.log:
        if ev.kind == "quarantine":
            windows.setdefault(ev.subject, []).append([ev.tick, None])
        elif ev.kind == "quarantine_release":
            windows[ev.subject][-1][1] = ev.tick

    def quarantined_at(subject, tick):
        for start, end in windows.get(subject, []):
            if start < tick and (end is None or tick < end):
                return True
        return False

    for ev in world.log:
        if ev.kind == "panel_selected":
            for w in ev.detail["witnesses"]:
                assert not quarantined_at(w, ev.tick)
        elif ev.kind in ("vote", "proposal"):
            assert not quarantined_at(ev.actor, ev.tick)


def _status_writes(tree):
    """(line, enclosing function) of each ``.status`` store that does not
    assign a ``TxnStatus`` member, and of each ``setattr(..., "status", ...)``."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr == "status":
                    value = node.value
                    txn_member = (isinstance(value, ast.Attribute)
                                  and isinstance(value.value, ast.Name)
                                  and value.value.id == "TxnStatus")
                    if not txn_member:
                        found.append((node.lineno, func))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "setattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "status"):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_device_status_has_one_writer():
    """Every device-status write goes through ``World.set_status``: a write
    around it would leave the cached active view serving stale devices."""
    package = Path(gdpsim.__file__).parent
    bypasses = []
    for path in sorted(package.glob("*.py")):
        for line, func in _status_writes(ast.parse(path.read_text())):
            if not (path.name == "world.py" and func == "set_status"):
                bypasses.append(f"{path.name}:{line} in {func}")
    assert bypasses == []
    assert _status_writes(ast.parse(
        "def f(p):\n    p.status = DeviceStatus.BANNED\n")) == [(2, "f")]
