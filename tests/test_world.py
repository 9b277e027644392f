import ast
import json
from pathlib import Path

import pytest

import gdpsim
from gdpsim import actors, consensus, incentives, metrics, transmission
from gdpsim import world as world_mod
from gdpsim.anomaly import StreamBaseline
from gdpsim.config import AdversarySpec, ScenarioConfig
from gdpsim.errors import InvalidConfig
from gdpsim.events import encode_event
from gdpsim.metrics import (
    derive_metrics,
    replay_matches_world,
    snapshot_digest,
)
from gdpsim.onboarding import DeviceStatus
from gdpsim.scenarios import BUILTIN_SCENARIOS, get_scenario
from gdpsim.transmission import TxnStatus
from gdpsim.world import build_world, run_world, step

from conftest import mini_cfg, mini_world, population_cfg


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


def test_build_rejects_uncalibrated_anomaly_window():
    # the point test's t quantile is calibrated for df = window - 1 >= 8
    with pytest.raises(InvalidConfig) as err:
        build_world(mini_cfg(anomaly__window=8))
    assert "anomaly.window" in str(err.value)
    assert build_world(mini_cfg(anomaly__window=9)).cfg.anomaly.window == 9


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
    at_tip = {f"head:{p.hex()}" for p in world.devices
              if world.height(p) == tip.height}
    assert at_tip and set(mismatches) == at_tip | {"canonical_head"}


def test_replay_fold_catches_altered_accounts():
    cfg = get_scenario("baseline")
    cfg.duration_ticks, cfg.drain_ticks = 60, 20
    world = run_world(cfg)
    assert replay_matches_world(world) == {}
    first, second = sorted(world.reputation_accounts)[:2]
    world.set_score(first, world.reputation_accounts[first].score - 0.25)
    world.stake_accounts[second].offense_count += 1
    world.total_minted += 1.0
    world.total_deposited += 1.0
    world.bond_escrow += 1.0
    assert set(replay_matches_world(world)) == {
        f"score:{first.hex()}", f"offenses:{second.hex()}",
        "total_minted", "total_deposited", "bond_escrow"}


def test_metrics_rederivable_from_written_log(tmp_path):
    from gdpsim.events import read_events_jsonl, write_log
    cfg = get_scenario("baseline")
    cfg.duration_ticks, cfg.drain_ticks = 120, 40
    world = run_world(cfg)
    report = derive_metrics(world.log, cfg)
    write_log(world.log, tmp_path)
    reread = read_events_jsonl(tmp_path / "events.jsonl")
    assert derive_metrics(reread, cfg) == report

    # the read-back log shares one string per value, as the live log does
    def strings(value):
        if isinstance(value, str):
            yield value
        elif isinstance(value, list):
            for item in value:
                yield from strings(item)

    _, _, actors, subjects, details = reread.columns()
    held = [*actors, *subjects,
            *(s for detail in details for value in detail.values()
              for s in strings(value))]
    assert len({id(s) for s in held}) == len(set(held)) > 100


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
    heights = {world.height(p) for p in world.active_devices()}
    assert len(heights) == 1


def test_staggered_outages_catch_up_through_the_laggard_sync(monkeypatch):
    """Devices back from an outage sit below the head until ``_sync_lagging``
    brings them up; the built-ins reach that path at most twice a run. Here
    eight staggered outages send eight devices through it, and the run
    still replays to the live state with every node's ledger a prefix of
    the canonical chain."""
    from gdpsim.config import OutageSpec
    cfg = get_scenario("baseline")
    cfg.outages = [OutageSpec(device_index=i, start=40 + 25 * i, duration=15)
                   for i in range(8)]
    synced = []
    sync_lagging = world_mod._sync_lagging

    def recording(world):
        behind = {p: world.height(p) for p in world.behind}
        sync_lagging(world)
        synced.extend(p for p, height in behind.items()
                      if world.height(p) > height)

    monkeypatch.setattr(world_mod, "_sync_lagging", recording)
    world = run_world(cfg)
    assert len(set(synced)) >= 8
    assert replay_matches_world(world) == {}
    # a node's ledger is the canonical chain up to its height, so it is a
    # prefix when the chain verifies and the height is within it
    consensus.verify_chain(world, world.canonical.blocks)
    assert all(0 <= world.height(p) <= world.canonical.height
               for p in world.devices)


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


def test_zero_score_refusal_is_retried_every_tick():
    # a refusal that read scores is not remembered: a score write that
    # changes no status still seats the txn on the next tick
    world = build_world(mini_cfg())
    witnesses = [p for p in world.active_devices()
                 if world.actors[p].role == "honest_witness"]
    for pub in witnesses[3:]:
        world.set_score(pub, 0.0)
    step(world)
    stalled = list(world.unpaneled)
    assert stalled and world.waiting_stamp is None
    world.cfg.txn_arrival_rate = 0.0
    world.set_score(witnesses[3], 0.5)
    step(world)
    assert world.unpaneled == []
    assert all(world.transactions[t].panel for t in stalled)


def _stalled_panels(monkeypatch, skip: bool):
    """Txns that no panel can seat (four eligible witnesses, k=5), retried
    while arrivals are off; without ``skip``, ``waiting_stamp`` is cleared
    before every tick, so every retry draws. Returns the world, the stalled
    txn ids and the ``select_witnesses`` calls of each retry tick."""
    world = build_world(mini_cfg())
    calls, per_tick = [], []
    select = transmission.select_witnesses

    def counted(*args, **kwargs):
        calls.append(world.tick)
        return select(*args, **kwargs)

    def tick():
        if not skip:
            world.waiting_stamp = None
        step(world)

    def retry(ticks):
        for _ in range(ticks):
            calls.clear()
            version = world.status_version
            tick()
            assert world.status_version == version  # no status changed
            per_tick.append(len(calls))

    witnesses = [p for p in world.active_devices()
                 if world.actors[p].role == "honest_witness"]
    for pub in witnesses[3:]:
        world.set_status(pub, DeviceStatus.QUARANTINED)
    with monkeypatch.context() as patch:
        patch.setattr(transmission, "select_witnesses", counted)
        for _ in range(3):
            tick()
        stalled = list(world.unpaneled)
        world.cfg.txn_arrival_rate = 0.0
        retry(3)
        world.cfg.panel.diversity = 2  # no seat more, but a new stamp
        retry(2)
        world.set_status(witnesses[3], DeviceStatus.ACTIVE)
        calls.clear()
        tick()
        per_tick.append(len(calls))
    return world, stalled, per_tick


def test_unseatable_retries_wait_for_a_status_change(monkeypatch):
    world, stalled, per_tick = _stalled_panels(monkeypatch, skip=True)
    reference, ref_stalled, ref_per_tick = _stalled_panels(monkeypatch,
                                                          skip=False)
    n = len(stalled)
    assert n == 3 and stalled == ref_stalled
    # retries under the active set, k and diversity that refused them draw
    # nothing
    assert per_tick == [0, 0, 0, n, 0, n]
    assert ref_per_tick == [n] * 6
    # once a witness returns, every txn is seated on the next tick with the
    # panel the run without the skip gives, and no event differs
    assert world.unpaneled == [] and reference.unpaneled == []
    for tid in stalled:
        txn = world.transactions[tid]
        assert len(txn.panel) == world.cfg.panel.k
        assert txn.panel == reference.transactions[tid].panel
    assert [encode_event(e) for e in world.log] == \
        [encode_event(e) for e in reference.log]


def test_unpaneled_txns_wait_for_their_stamp_to_move(monkeypatch):
    """On ``collusion_at_quorum`` most arrivals find no seatable panel. A run
    whose retry pass runs only when the panel stamp moved logs the same
    events as one that retries every unpaneled txn on every tick, and
    makes a small fraction of the ``_try_open_panel`` calls."""
    calls = []
    try_open = world_mod._try_open_panel

    def counted(world, txn):
        calls.append(world.tick)
        return try_open(world, txn)

    monkeypatch.setattr(world_mod, "_try_open_panel", counted)
    world = run_world(get_scenario("collusion_at_quorum"))
    waiting = len(calls)
    reference = build_world(get_scenario("collusion_at_quorum"))
    for _ in range(reference.cfg.duration_ticks):
        reference.waiting_stamp = None  # so the retry pass runs every tick
        step(reference)
    retried = len(calls) - waiting
    assert waiting < 1000 < 10 * waiting < retried
    assert [encode_event(e) for e in world.log] == \
        [encode_event(e) for e in reference.log]


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


def _attribute_writes(tree, attrs):
    """(line, enclosing function) of each store to an attribute named in
    ``attrs`` or to an item of one, augmented or unpacked, and of each
    ``setattr`` naming one."""
    found = []

    def stored(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(stored(t) for t in target.elts)
        if isinstance(target, (ast.Starred, ast.Subscript)):
            return stored(target.value)
        return isinstance(target, ast.Attribute) and target.attr in attrs

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(stored(t) for t in targets):
            found.append((node.lineno, func))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "setattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in attrs):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_reputation_score_has_one_writer():
    """Every reputation-score write goes through ``World.set_score``: a
    write around it would leave the witness-draw weights stale."""
    package = Path(gdpsim.__file__).parent
    bypasses = []
    for path in sorted(package.glob("*.py")):
        for line, func in _attribute_writes(ast.parse(path.read_text()),
                                            {"score"}):
            if not (path.name == "world.py" and func == "set_score"):
                bypasses.append(f"{path.name}:{line} in {func}")
    assert bypasses == []
    sample = ("def f(world, p):\n"
              "    rep = world.reputation_accounts[p]\n"
              "    rep.score = 0.5\n"
              "    rep.score -= 0.1\n"
              "    a, rep.score = 1, 0.2\n"
              "    setattr(rep, 'score', 0.3)\n"
              "    world.scores[p] = 0.4\n")
    assert _attribute_writes(ast.parse(sample), {"score"}) == [
        (3, "f"), (4, "f"), (5, "f"), (6, "f")]


def _event_appends(tree, kinds):
    """(line, enclosing function, kind) of each call that appends or builds
    an event of a kind in ``kinds``: an ``append`` or ``Event`` call whose
    second positional argument, or ``kind`` keyword, is that string."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else \
                getattr(callee, "id", None)
            kind = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "kind"), None)
            if (name in ("append", "Event") and isinstance(kind, ast.Constant)
                    and kind.value in kinds):
                found.append((node.lineno, func, kind.value))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_incentive_and_inspection_events_have_one_writer_each():
    """The log is the one record of every stake or reputation change and
    of every inspection, and no operation returns a copy of it. So each
    kind has one writer that fixes its fields: ``incentives._emit`` for
    ``incentive`` events, ``stochastic._record`` for ``inspection``
    events."""
    package = Path(gdpsim.__file__).parent
    writers = sorted({(path.name, func, kind)
                      for path in sorted(package.glob("*.py"))
                      for _, func, kind in _event_appends(
                          ast.parse(path.read_text()),
                          {"incentive", "inspection"})})
    assert writers == [("incentives.py", "_emit", "incentive"),
                       ("stochastic.py", "_record", "inspection")]
    sample = ("def f(world, ev):\n"
              "    world.log.append(world.tick, 'incentive', subject='a')\n"
              "    world.log.append(world.tick, kind='inspection')\n"
              "    events.append(Event(1, 'inspection', '', '', {}))\n"
              "    if ev.kind == 'incentive':\n"
              "        world.log.append(world.tick, 'vote')\n"
              "    counts.append('incentive')\n")
    assert _event_appends(ast.parse(sample), {"incentive", "inspection"}) \
        == [(2, "f", "incentive"), (3, "f", "inspection"),
            (4, "f", "inspection")]


def test_stake_writes_bump_the_stake_version():
    """``consensus.active_stake_total`` keeps its sum until the active view
    or ``world.stake_version`` changes. So the one store to ``staked``
    (``incentives._forfeit``, the slash) and the one store into
    ``stake_accounts`` (``incentives.open_account``) each bump the version;
    the world's constructor makes both. The replay in ``metrics.py`` folds
    the log into a ``staked`` map of its own, which is not world stake."""
    package = Path(gdpsim.__file__).parent
    writers, bumps = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        writers |= {(path.name, func) for _, func in _attribute_writes(
            tree, {"staked", "stake_accounts"})}
        bumps |= {(path.name, func) for _, func in _attribute_writes(
            tree, {"stake_version"})}
    replay = {("metrics.py", "__init__"), ("metrics.py", "replay_events")}
    assert writers - replay == {("incentives.py", "_forfeit"),
                                ("incentives.py", "open_account"),
                                ("world.py", "__init__")}
    writers -= replay
    assert writers <= bumps
    sample = ("def f(world, p):\n"
              "    acct = world.stake_accounts[p]\n"
              "    acct.staked -= 1.0\n"
              "    world.stake_accounts[p] = acct\n"
              "    a, acct.staked = 1, 0.2\n"
              "    setattr(acct, 'staked', 0.3)\n"
              "    acct.liquid += 1.0\n")
    assert _attribute_writes(ast.parse(sample), {"staked", "stake_accounts"}) \
        == [(3, "f"), (4, "f"), (5, "f"), (6, "f")]


def test_onboarding_fixes_what_the_draw_indexes_key_on():
    """``onboarding.finalize_device`` files each device once under its
    operator group, its expertise and its arbitrator role; the mediator and
    panel draws trust those indexes. So no module writes a profile's
    ``operator_group``, ``expertise`` or ``arbitrator`` after it is made
    (a draw re-reads ``arbitrator``, but a device made one later would be
    missing from ``world.arbitrators``)."""
    package = Path(gdpsim.__file__).parent
    fixed = {"operator_group", "expertise", "arbitrator"}
    writes = [f"{path.name}:{line} in {func}"
              for path in sorted(package.glob("*.py"))
              for line, func in _attribute_writes(
                  ast.parse(path.read_text()), fixed)]
    assert writes == []
    world = mini_world(operator_groups=3)
    for group, members in world.group_members.items():
        assert members == [p for p, prof in world.devices.items()
                           if prof.operator_group == group]
    for category, experts in world.experts.items():
        assert experts == [p for p, prof in world.devices.items()
                           if category in prof.expertise]
    assert world.arbitrators == [p for p, prof in world.devices.items()
                                 if prof.arbitrator]


_MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem",
             "clear", "sort", "reverse", "update", "setdefault", "subtract",
             "add", "discard", "difference_update", "intersection_update",
             "symmetric_difference_update"}


# the class whose every construction sets an owned attribute
_BUILT_BY = {"operator_group": "DeviceProfile", "commit": "Attestation",
             "txn_id": "Attestation", "public_key": "KeyPair",
             "secret_key": "KeyPair", "private": "KeyPair"}


def _owned_writes(tree, attrs):
    """(line, enclosing ``Class.function`` or function) of each store to an
    attribute named in ``attrs`` or to an item of one, augmented, unpacked
    or through ``setattr``; of each ``del`` of one or of its items; of each
    call of a mutating method on one; of each ``replace`` naming one; and
    of each construction of a class in ``_BUILT_BY`` for one."""
    builders = {_BUILT_BY[attr] for attr in attrs if attr in _BUILT_BY}
    found = []

    def named(node):
        while isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(named(n) for n in node.elts)
        return isinstance(node, ast.Attribute) and node.attr in attrs

    def visit(node, owner, func):
        if isinstance(node, ast.ClassDef):
            owner, func = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        where = f"{owner}.{func}" if owner and func else func
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(named(t) for t in targets):
            found.append((node.lineno, where))
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else \
                getattr(callee, "id", None)
            if (isinstance(callee, ast.Attribute) and name in _MUTATORS
                    and named(callee.value)):
                found.append((node.lineno, where))
            elif (name == "setattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and node.args[1].value in attrs):
                found.append((node.lineno, where))
            elif name in builders or name == "replace" and any(
                    k.arg in attrs for k in node.keywords):
                found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, func)

    visit(tree, None, None)
    return found


_KEPT_SET = {"active", "order", "status_version", "active_per_group"}
_KEPT_HEIGHTS = {"heights", "behind"}


_ATTESTATION_BINDING = {"commit", "txn_id"}


def test_an_attestation_is_bound_once_at_its_commit():
    """``witness_commit`` signs an attestation by construction: it keeps
    the witness's keys, and ``signature`` is made with them over ``txn_id +
    commit`` when it is read. That is the signature the commit would have
    made only while neither field changes, so
    ``witness_commit`` alone sets them, when it builds the attestation, and
    no module writes them after."""
    package = Path(gdpsim.__file__).parent
    writers = sorted({(path.name, where)
                      for path in sorted(package.glob("*.py"))
                      for _, where in _owned_writes(
                          ast.parse(path.read_text()), _ATTESTATION_BINDING)})
    assert writers == [("transmission.py", "witness_commit")]
    sample = ("def f(att, c):\n"
              "    att.commit = c\n"
              "    att.txn_id, x = c, 1\n"
              "    setattr(att, 'commit', c)\n"
              "    replace(att, txn_id=c)\n"
              "    Attestation(b'', c, c)\n"
              "    del att.commit\n"
              "    replace(att, salt=c)\n"
              "    print(att.commit + att.txn_id, c.commit_id)\n")
    assert _owned_writes(ast.parse(sample), _ATTESTATION_BINDING) == [
        (n, "f") for n in range(2, 8)]


_KEY_BINDING = {"public_key", "secret_key", "private"}


def test_a_keypair_is_built_only_from_its_parsed_key():
    """``generate_keypair`` parses a secret once and builds its ``KeyPair``
    from the parsed key, so ``public_key`` is ``private``'s own public half,
    which ``signed_by_construction`` trusts. It alone builds one, and no
    module writes a key field after."""
    package = Path(gdpsim.__file__).parent
    writers = sorted({(path.name, where)
                      for path in sorted(package.glob("*.py"))
                      for _, where in _owned_writes(
                          ast.parse(path.read_text()), _KEY_BINDING)})
    assert writers == [("primitives.py", "generate_keypair")]
    sample = ("def f(keys, k):\n"
              "    KeyPair(k, k, None)\n"
              "    keys.private = k\n"
              "    replace(keys, public_key=k)\n"
              "    setattr(keys, 'secret_key', k)\n"
              "    print(keys.private, keys.public_key)\n")
    assert _owned_writes(ast.parse(sample), _KEY_BINDING) == [
        (n, "f") for n in range(2, 6)]


def _copies(tree):
    """Lines that import ``copy`` or ``pickle``, or name
    ``dataclasses.replace``: each copies an object field by field."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            copier = any(alias.name.split(".")[0] in ("copy", "pickle")
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            copier = node.module in ("copy", "pickle") or (
                node.module == "dataclasses"
                and any(alias.name == "replace" for alias in node.names))
        else:
            copier = (isinstance(node, ast.Attribute)
                      and node.attr == "replace"
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "dataclasses")
        if copier:
            found.append(node.lineno)
    return sorted(found)


def test_no_module_copies_an_attestation():
    """A copy of an attestation signed by construction reads its
    ``signature`` and holds that ``Signature`` explicitly, the per-seat
    object the commit no longer builds. An attestation's type cannot be
    told from the source, so no module may copy any object by
    ``dataclasses.replace``, ``copy`` or ``pickle``."""
    package = Path(gdpsim.__file__).parent
    copies = [(path.name, line) for path in sorted(package.glob("*.py"))
              for line in _copies(ast.parse(path.read_text()))]
    assert copies == []
    sample = ("import copy\n"
              "from pickle import dumps\n"
              "from dataclasses import field, replace\n"
              "import dataclasses, json\n"
              "dataclasses.replace(att)\n"
              "name.replace('a', 'b')\n"
              "from copy import deepcopy\n")
    assert _copies(ast.parse(sample)) == [1, 2, 3, 5, 7]


def test_the_active_set_and_operator_groups_have_one_writer_each():
    """``World.set_status`` keeps the active set, its device order, its
    per-group counts and its version, which the witness, mediator and
    validator draws and every memo keyed on the version trust; only
    ``World.__init__`` sets them up. The kept counts assume a device's
    operator group never changes, so ``onboarding.finalize_device`` alone
    fixes it, when it builds the profile. ``World.set_height`` alone keeps
    the heights of the devices off the head and the set of those behind it;
    the replay's ``ReplayState.heights`` is a map of its own."""
    package = Path(gdpsim.__file__).parent
    replay = {("metrics.py", "ReplayState.__init__"),
              ("metrics.py", "replay_events")}
    writers = {name: sorted({(path.name, where)
                             for path in sorted(package.glob("*.py"))
                             for _, where in _owned_writes(
                                 ast.parse(path.read_text()), attrs)})
               for name, attrs in (("kept", _KEPT_SET),
                                   ("heights", _KEPT_HEIGHTS),
                                   ("group", {"operator_group"}))}
    writers["heights"] = sorted(set(writers["heights"]) - replay)
    assert writers == {
        "kept": [("world.py", "World.__init__"),
                 ("world.py", "World.set_status")],
        "heights": [("world.py", "World.__init__"),
                    ("world.py", "World.set_height")],
        "group": [("onboarding.py", "finalize_device")]}
    sample = ("class W:\n"
              "    def f(self, world, p, g):\n"
              "        world.active = []\n"
              "        world.active.append(p)\n"
              "        del world.active[0]\n"
              "        world.order[p] = 1\n"
              "        world.active_per_group[g] += 1\n"
              "        a, world.status_version = 1, 2\n"
              "        setattr(world, 'order', {})\n"
              "        world.order.setdefault(p, 0)\n"
              "        print(world.active[0], len(world.order))\n"
              "def g(prof, q):\n"
              "    prof.operator_group = q\n"
              "    DeviceProfile(operator_group=q)\n"
              "    replace(prof, operator_group=q)\n"
              "    replace(prof, status=q)\n")
    tree = ast.parse(sample)
    assert _owned_writes(tree, _KEPT_SET) == [
        (n, "W.f") for n in range(3, 11)]
    assert _owned_writes(tree, {"operator_group"}) == [
        (13, "g"), (14, "g"), (15, "g")]
    sample = ("def h(world, p):\n"
              "    world.heights[p] = 0\n"
              "    world.heights.pop(p, None)\n"
              "    world.behind.add(p)\n"
              "    world.behind.discard(p)\n"
              "    world.behind |= {p}\n"
              "    del world.heights[p]\n"
              "    world.heights.get(p, 0)\n"
              "    p in world.behind\n")
    assert _owned_writes(ast.parse(sample), _KEPT_HEIGHTS) == [
        (n, "h") for n in range(2, 8)]


_STREAM_STATE = {"fed", "ring", "s1", "s2", "n_fractional", "cusum_pos",
                 "cusum_neg"}


def _stream_state_writes(tree):
    """(line, enclosing function) of each store or delete of a
    ``StreamBaseline`` state attribute, augmented or unpacked, of each
    ``setattr``/``delattr`` naming one, and of each method call on a
    ``.ring``."""
    found = []

    def stored(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(stored(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return stored(target.value)
        return (isinstance(target, ast.Attribute)
                and target.attr in _STREAM_STATE)

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(stored(t) for t in targets):
            found.append((node.lineno, func))
        if isinstance(node, ast.Call):
            call = node.func
            if (isinstance(call, ast.Name)
                    and call.id in ("setattr", "delattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in _STREAM_STATE):
                found.append((node.lineno, func))
            if (isinstance(call, ast.Attribute)
                    and isinstance(call.value, ast.Attribute)
                    and call.value.attr == "ring"):
                found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_stream_state_has_one_owner():
    """Only ``anomaly.py`` writes a ``StreamBaseline``'s window, sums and
    CUSUMs: a write elsewhere would put a stream out of step with the wake
    schedule that its ring and sums set."""
    package = Path(gdpsim.__file__).parent
    bypasses = []
    for path in sorted(package.glob("*.py")):
        if path.name != "anomaly.py":
            for line, func in _stream_state_writes(ast.parse(path.read_text())):
                bypasses.append(f"{path.name}:{line} in {func}")
    assert bypasses == []
    sample = ("def f(stream, b):\n"
              "    b.cusum_pos = 0.0\n"
              "    b.s1 += 3\n"
              "    a, stream.baseline.fed = 1, 2\n"
              "    setattr(b, 'n_fractional', 0)\n"
              "    b.ring.append((0, 1.0))\n"
              "    del b.s2\n"
              "    n = b.fed + len(b.ring)\n"
              "    b.push_zeros(n)\n")
    assert _stream_state_writes(ast.parse(sample)) == [
        (2, "f"), (3, "f"), (4, "f"), (5, "f"), (6, "f"), (7, "f")]


def _stream_tests(tree):
    """(line, enclosing ``Class.function``) of each call to
    ``calibrated_cut`` and of each CUSUM step, a subtraction of ``drift``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            name = node.func
            name = name.attr if isinstance(name, ast.Attribute) else \
                getattr(name, "id", None)
            if name == "calibrated_cut":
                found.append((node.lineno, scope))
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Sub)):
            right = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(right, ast.Name) and right.id == "drift":
                found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_stream_tests_are_written_once():
    """``StreamBaseline._judge`` is the one place that steps the CUSUMs and
    makes the point test, so ``feed`` and ``quiet_span`` judge a sample
    with the same float operations; a restated test would drift apart."""
    path = Path(gdpsim.__file__).parent / "anomaly.py"
    scopes = [scope for _, scope in _stream_tests(ast.parse(path.read_text()))]
    assert scopes == ["StreamBaseline._judge"] * 3
    sample = ("class B:\n"
              "    def f(self, z, drift):\n"
              "        pos = max(0.0, self.pos + z - drift)\n"
              "        self.neg -= drift\n"
              "        return anomaly.calibrated_cut(3.0, 9)\n"
              "def g(z, drift):\n"
              "    return calibrated_cut(z, drift - 1)\n")
    assert _stream_tests(ast.parse(sample)) == [
        (3, "B.f"), (4, "B.f"), (5, "B.f"), (7, "g")]


# calls a witness policy may make: each is known to leave nothing behind
_PURE_CALLS = {"super", "witness_verdict", "digest", "len", "isinstance"}


def _impure_verdict_steps(tree):
    """(line, class) of each step in a ``witness_verdict`` method that could
    leave something behind: a read of an ``rng`` attribute, a store or
    delete through an attribute or an item, a ``global`` or ``nonlocal``,
    and a call to a name not in ``_PURE_CALLS``. Stores to local names are
    the method's own."""
    found = []

    def stored(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(stored(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return stored(target.value)
        return isinstance(target, (ast.Attribute, ast.Subscript))

    def visit(node, owner):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        impure = any(stored(t) for t in targets) or isinstance(
            node, (ast.Global, ast.Nonlocal))
        if isinstance(node, ast.Attribute) and node.attr.startswith("rng"):
            impure = True
        if isinstance(node, ast.Call):
            call = node.func
            name = call.attr if isinstance(call, ast.Attribute) else \
                getattr(call, "id", None)
            impure = impure or name not in _PURE_CALLS
        if impure:
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    scanned = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and fn.name == "witness_verdict"):
                    scanned.add(cls.name)
                    visit(fn, cls.name)
    return found, scanned


def test_witness_verdict_policies_are_pure():
    """Deep scrutiny re-derives a verdict only for witnesses that revealed
    Invalid, which moves no byte only while every ``witness_verdict`` is
    pure: no policy may draw from an rng, store through an attribute or an
    item, or make a call the scan does not know to be pure."""
    path = Path(actors.__file__)
    found, scanned = _impure_verdict_steps(ast.parse(path.read_text()))
    assert found == []
    assert scanned == {name for name, cls in vars(actors).items()
                       if isinstance(cls, type)
                       and "witness_verdict" in vars(cls)}
    sample = ("class A:\n"
              "    def witness_verdict(self, world, txn):\n"
              "        truth = world.ground_truth[txn.id]\n"
              "        self.seen = truth\n"
              "        world.counts[txn.id] += 1\n"
              "        if self.rng.random() < 0.5:\n"
              "            world.log.append(0, 'k')\n"
              "        return super().witness_verdict(world, txn)\n"
              "    def make_salt(self):\n"
              "        return self.rng.bytes(16)\n")
    assert _impure_verdict_steps(ast.parse(sample)) == (
        [(4, "A"), (5, "A"), (6, "A"), (6, "A"), (7, "A")], {"A"})


def test_txrate_feeds_follow_txns_not_devices(monkeypatch):
    """Once the windows have filled, a tick feeds no more txrate streams
    than it has non-zero samples and due wakes, and doubling the quiet
    colluders leaves the fed total well under double: the phase's work follows
    the txns, not the active devices."""
    real_feed, real_phase = StreamBaseline.feed, world_mod._per_tick_streams
    fed = [0]

    def counting_feed(self, *args):
        fed[0] += self.stream_id.startswith("txrate:")
        return real_feed(self, *args)

    def counted_phase(world):
        samples = sum(1 for p in world._txn_counts_this_tick
                      if world.devices[p].status is DeviceStatus.ACTIVE)
        wakes = sum(1 for s in world.txrate_streams.values()
                    if s.wake == world.stream_phases + 1)
        before = fed[0]
        real_phase(world)
        ticks.append((world.tick, fed[0] - before, samples + wakes))

    monkeypatch.setattr(StreamBaseline, "feed", counting_feed)
    monkeypatch.setattr(world_mod, "_per_tick_streams", counted_phase)
    totals = {}
    for colluders in (700, 1400):
        cfg = population_cfg(duration_ticks=130, drain_ticks=10)
        cfg.adversaries[0].count = colluders
        world = build_world(cfg)
        ticks = []
        for _ in range(cfg.duration_ticks):
            step(world)
        filled = [(tick, n, bound) for tick, n, bound in ticks
                  if tick > cfg.anomaly.window]
        assert filled and all(n <= bound for _, n, bound in filled)
        totals[colluders] = sum(n for _, n, _ in filled)
    # fed per sample, the 1400-colluder run would feed 1400 streams a tick
    assert totals[1400] < 1.5 * totals[700] < 1.5 * 2 * 700


_HOLD_OWNERS = {"quarantines": "anomaly.py", "ban_until": "incentives.py",
                "disputes": "arbitration.py"}


def _hold_writes(tree):
    """(line, map name) of each store into or ``del`` of ``<x>.<map>[...]``,
    and of each ``pop``/``popitem``/``setdefault``/``update``/``clear`` call
    on ``<x>.<map>``, for the three maps of open holds and disputes."""
    def held(node):
        return isinstance(node, ast.Attribute) and node.attr in _HOLD_OWNERS

    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            found.extend((node.lineno, sub.value.attr)
                         for sub in ast.walk(target)
                         if isinstance(sub, ast.Subscript) and held(sub.value))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("pop", "popitem", "setdefault",
                                       "update", "clear")
                and held(node.func.value)):
            found.append((node.lineno, node.func.value.attr))
    return sorted(found)


def test_each_hold_map_has_one_owner():
    """Only ``anomaly`` writes ``world.quarantines``, only ``incentives``
    ``world.ban_until`` and only ``arbitration`` ``world.disputes``. Each
    owner drops an entry when its quarantine, temp ban or dispute ends, so
    the per-tick phases scan open work only; a write elsewhere could leave
    an ended one behind."""
    package = Path(gdpsim.__file__).parent
    bypasses = [f"{path.name}:{line} {name}"
                for path in sorted(package.glob("*.py"))
                for line, name in _hold_writes(ast.parse(path.read_text()))
                if path.name != _HOLD_OWNERS[name]]
    assert bypasses == []
    sample = ("def f(world, p, d):\n"
              "    world.quarantines[p] = 3\n"
              "    del world.ban_until[p]\n"
              "    world.disputes.pop(d.id, None)\n"
              "    a, world.ban_until[p] = 1, 2\n"
              "    world.quarantines.update({p: 4})\n"
              "    print(world.quarantines[p], world.disputes.get(d))\n")
    assert _hold_writes(ast.parse(sample)) == [
        (2, "quarantines"), (3, "ban_until"), (4, "disputes"),
        (5, "ban_until"), (6, "quarantines")]


def _foreign_private_reads(tree):
    """(line, source) of each read of an underscore name that the module
    does not define itself: an attribute read through anything but
    ``self``/``cls``, or a ``from ... import _name``."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)

    def private(name):
        return (name.startswith("_") and not name.startswith("__")
                and name not in defined)

    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and private(node.attr)
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if private(alias.name))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    """A module reaches another only through its public names, so each
    module's private helpers (the dispute stage machine's among them) stay
    its own to change."""
    package = Path(gdpsim.__file__).parent
    bypasses = [f"{path.name}:{line} {text}"
                for path in sorted(package.glob("*.py"))
                for line, text in _foreign_private_reads(
                    ast.parse(path.read_text()))]
    assert bypasses == []
    sample = ("from .arbitration import _close\n"
              "class A:\n"
              "    def f(self, world):\n"
              "        self._own(world._mine, arbitration._accused(world))\n"
              "    def _own(self, x, y):\n"
              "        world._mine = world.actors[0]._conclusive\n")
    assert _foreign_private_reads(ast.parse(sample)) == [
        (1, "_close"), (4, "arbitration._accused"),
        (6, "world.actors[0]._conclusive")]


def test_longevity_poll_waits_for_the_first_due_bonus(monkeypatch):
    """Every population device joins at tick 0, so no longevity bonus can
    fall due before ``longevity_period`` (1000) and a 40-tick run never
    calls ``apply_longevity_bonus``. No device has yet reached
    ``longevity_min_score`` either, so none holds the floor down."""
    calls = []
    bonus = incentives.apply_longevity_bonus

    def counted(*args):
        calls.append(args[1])
        return bonus(*args)

    monkeypatch.setattr(incentives, "apply_longevity_bonus", counted)
    world = run_world(population_cfg(duration_ticks=40, drain_ticks=20))
    assert len(world.active_devices()) > 600
    assert calls == []
    assert world.longevity_floor >= world.cfg.incentives.longevity_period


def test_score_waiting_devices_leave_the_longevity_floor():
    """A device overdue for its bonus but below ``longevity_min_score`` is
    not due: the poll leaves the floor above the tick until a score write
    lifts an active device to the minimum."""
    world = build_world(mini_cfg(incentives__longevity_period=5))
    minimum = world.cfg.incentives.longevity_min_score
    for _ in range(10):
        step(world)
        assert all(world.reputation_accounts[p].score < minimum
                   for p in world.active_devices())
        assert world.longevity_floor > world.tick
    pub = world.active_devices()[0]
    world.set_score(pub, minimum)
    assert world.longevity_floor <= world.tick
    step(world)
    assert world.reputation_accounts[pub].last_bonus_tick == world.tick


def _device_entries(tree):
    """(line, enclosing function) of each store into ``<x>.devices[...]``,
    also through ``setdefault``/``update``; and the set of functions that
    call ``lower_due_floors``."""
    entries, lowering = [], set()

    def is_devices(node):
        return isinstance(node, ast.Attribute) and node.attr == "devices"

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
                if isinstance(sub, ast.Subscript) and is_devices(sub.value):
                    entries.append((node.lineno, func))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (node.func.attr in ("setdefault", "update")
                    and is_devices(node.func.value)):
                entries.append((node.lineno, func))
            if node.func.attr == "lower_due_floors":
                lowering.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return entries, lowering


def test_devices_turn_active_only_where_the_due_floors_are_lowered():
    """A device joins the longevity and revalidation polls only by turning
    active: through ``World.set_status``, the one status writer, or by
    entering ``world.devices`` in ``onboarding.finalize_device``. Both lower
    the due floors; a third way in would leave its bonus and revalidation
    unpolled. ``World.set_score``, the one score writer, lowers them too,
    for an active device that reaches the longevity minimum score."""
    package = Path(gdpsim.__file__).parent
    entries, lowering = set(), set()
    for path in sorted(package.glob("*.py")):
        found, callers = _device_entries(ast.parse(path.read_text()))
        entries |= {(path.name, func) for _, func in found}
        lowering |= {(path.name, func) for func in callers}
    assert entries == {("onboarding.py", "finalize_device")}
    assert entries | {("world.py", "set_status"),
                      ("world.py", "set_score")} <= lowering
    sample = ("def f(world, p, q):\n"
              "    world.devices[p] = q\n"
              "    world.devices.setdefault(p, q)\n"
              "    a, world.devices[p] = 1, q\n"
              "    print(world.devices[p], devices[p])\n"
              "    world.lower_due_floors(p)\n")
    assert _device_entries(ast.parse(sample)) == (
        [(2, "f"), (3, "f"), (4, "f")], {"f"})


def test_world_hexes_memo_is_each_ids_hex_and_per_world():
    """``World.hexes`` maps each id to ``id.hex()``, and every world keeps
    its own memo: two worlds of one config name the same ids with equal
    strings that are not the same objects."""
    first, second = mini_world(), mini_world()
    assert first.hexes is not second.hexes
    assert len(first.hexes) > 0
    for key, hexed in first.hexes.items():
        assert type(hexed) is str and hexed == key.hex()
    shared = first.hexes.keys() & second.hexes.keys()
    assert shared == first.hexes.keys()
    assert all(first.hexes[key] is not second.hexes[key] for key in shared)
    fresh = bytes(range(32))
    assert fresh not in first.hexes
    assert first.hexes[fresh] == fresh.hex()
    assert first.hexes[fresh] is first.hexes[fresh]
    assert fresh not in second.hexes


@pytest.mark.parametrize("name", ["collusion_at_quorum", "lazy_witnesses"])
def test_each_id_is_one_string_across_the_log(name):
    """After a whole run, the actor and subject columns, the panels'
    ``witnesses`` and the blocks' ``recipients`` hold one ``str`` object per
    distinct 64-hex id; and the panel-outcome cause that several witnesses
    of one txn share is one object per call."""
    world = run_world(get_scenario(name))
    ticks, kinds, actors, subjects, details = world.log.columns()
    names = [s for s in actors + subjects if len(s) == 64]
    for kind, detail in zip(kinds, details):
        if kind == "panel_selected":
            names += detail["witnesses"]
        elif kind == "block_committed":
            names += detail["recipients"]
    assert len(set(names)) > 100
    assert len({id(s) for s in names}) == len(set(names))
    causes: dict = {}  # (tick, cause) -> ids of its strings
    for tick, kind, detail in zip(ticks, kinds, details):
        cause = detail.get("cause", "") if kind == "incentive" else ""
        if cause.split(":")[0] in ("attestation", "wrong_verdict",
                                   "lazy_witness"):
            causes.setdefault((tick, cause), set()).add(id(cause))
    assert len(causes) > 20
    assert all(len(ids) == 1 for ids in causes.values())


# The ``.hex()`` calls that name no id in an event: the one-shot random
# token and credential, the state and ledger exports, and the replay's
# genesis head, which no world names. (file, function, receiver)
_ONE_SHOT_HEX = {
    ("onboarding.py", "submit_registration", "world.rng_onboarding.bytes(16)"),
    ("onboarding.py", "finalize_device", "world.rng_onboarding.bytes(16)"),
    ("metrics.py", "_state_digest", "digest(body.encode())"),
    ("metrics.py", "ReplayState.__init__", "genesis_block().block_digest"),
    ("events.py", "write_ledger_csv", "b.parent"),
    ("events.py", "write_ledger_csv", "b.block_digest"),
    ("events.py", "write_ledger_csv", "b.proposer"),
}


def _hex_reads(tree):
    """(line, enclosing qualified name, receiver) of each ``.hex`` read,
    called or not, outside a ``raise`` statement's exception."""
    found = []

    def visit(node, scope, raised):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Raise):
            raised = True
        if (isinstance(node, ast.Attribute) and node.attr == "hex"
                and not raised):
            found.append((node.lineno, scope, ast.unparse(node.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, raised)

    visit(tree, None, False)
    return found


def test_ids_are_hexed_only_through_the_world_memo():
    """Every event field, detail and cause that names an id reads
    ``world.hexes``, so the log keeps one string per id. A ``.hex()`` may
    appear only in ``_Hexes.__missing__``, in a raised exception's
    message, or at a named one-shot site that is no id."""
    package = Path(gdpsim.__file__).parent
    bypasses = []
    for path in sorted(package.glob("*.py")):
        for line, scope, receiver in _hex_reads(ast.parse(path.read_text())):
            if (path.name, scope) == ("world.py", "_Hexes.__missing__"):
                continue
            if (path.name, scope, receiver) not in _ONE_SHOT_HEX:
                bypasses.append(f"{path.name}:{line} {receiver}.hex in {scope}")
    assert bypasses == []
    sample = ("class A:\n"
              "    def f(self, world, p):\n"
              "        world.log.append(0, 'x', subject=p.hex())\n"
              "        names = list(map(bytes.hex, [p]))\n"
              "        raise KeyError(p.hex())\n"
              "def g(p):\n"
              "    return f'{p.hex()[:16]}', world.hexes[p]\n")
    assert _hex_reads(ast.parse(sample)) == [
        (3, "A.f", "p"), (4, "A.f", "bytes"), (7, "g", "p")]
