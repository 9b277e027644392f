"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The heavyweight scenario sweeps scale the built-in
scenarios through config overrides only.
"""

import builtins
import hashlib
import itertools
import json
import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from gdpsim import consensus, transmission
from gdpsim.anomaly import StreamBaseline
from gdpsim.arbitration import DisputeStage
from gdpsim.cli import main as cli_main
from gdpsim.config import AdversarySpec
from gdpsim.consensus import Vote, tally, vote_weight, active_stake_total
from gdpsim.events import write_log
from gdpsim.incentives import deterrence_margin, simulate_cheater_average_payoff
from gdpsim.metrics import (derive_metrics, replay_matches_world,
                            snapshot_digest, snapshot_state, write_outputs)
from gdpsim.onboarding import DeviceStatus
from gdpsim.primitives import SeededRng, digest
from gdpsim.scenarios import BUILTIN_SCENARIOS, get_scenario
from gdpsim.transmission import Verdict
from gdpsim.world import build_world, run_world

from conftest import (aggregation_oracle, gauss, mini_world, population_cfg,
                      record_signature_reads, stats)

GOLDEN_DIR = Path(__file__).parent / "golden"
DIGESTS_PATH = GOLDEN_DIR / "digests.json"
# the digests file also pins criterion 2's population run under this name
POPULATION_PIN = "criterion_2_population"


def _pinned_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}


def _pin_digests(entries: dict) -> None:
    """Merge ``entries`` into the digests file, keeping the other names."""
    pins = {**_pinned_digests(), **entries}
    DIGESTS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def _report(text):
    print(f"\n[acceptance] {text}")


# ------------------------------------------------------------------ #
# 1. safety under sub-quorum collusion
# ------------------------------------------------------------------ #

def _run_below_quorum_seed(seed: int):
    cfg = get_scenario("collusion_below_quorum")
    cfg.seed = seed
    cfg.txn_arrival_rate = 8.0
    cfg.duration_ticks = 1310
    cfg.drain_ticks = 60
    t0 = time.perf_counter()
    world = run_world(cfg)
    elapsed = time.perf_counter() - t0
    report = derive_metrics(world.log, cfg)
    t = report["transactions"]
    return (seed, t["submitted"], t["false_commit_count"], elapsed)


def test_criterion_1_safety_below_quorum():
    """k=5, quorum=4, at most 3 colluders per panel, honest validator
    majority: 10,000 transactions x 20 seeds with zero false commits."""
    seeds = list(range(20))
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_run_below_quorum_seed, seeds))
    worst = 0.0
    for seed, submitted, false_commits, elapsed in results:
        worst = max(worst, elapsed)
        assert submitted == 10_000, f"seed {seed}: submitted {submitted}"
        assert false_commits == 0, f"seed {seed}: {false_commits} false commits"
        assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"
    _report(f"PASS criterion 1: 20 seeds x 10,000 txns, false_commit_count==0 "
            f"in every run (slowest seed {worst:.1f}s < 60s)")


# ------------------------------------------------------------------ #
# 2. safety boundary at quorum + stochastic detection
# ------------------------------------------------------------------ #

def test_criterion_2_safety_boundary_and_detection(tmp_path, update_goldens):
    """Colluders at quorum with inspections off produce false commits;
    enabling inspections at p=0.05 detects ~p of tampered commits. The
    population run's ``events.jsonl`` is pinned by digest: at N = 700 a
    change in how witness draws round shows here first."""
    # (a) the boundary is tight: inspections disabled
    cfg_off = get_scenario("collusion_at_quorum")
    world_off = run_world(cfg_off)
    report_off = derive_metrics(world_off.log, cfg_off)
    false_off = report_off["transactions"]["false_commit_count"]
    assert false_off > 0, "expected false commits at the quorum boundary"

    # (b) detection fraction over >= 10^4 tampered committed transactions
    cfg = population_cfg(duration_ticks=1450, drain_ticks=150)
    world = run_world(cfg)
    assert replay_matches_world(world) == {}
    write_log(world.log, tmp_path)
    events_path = tmp_path / "events.jsonl"
    pin = {"events_sha256": hashlib.sha256(events_path.read_bytes()).hexdigest()}
    if update_goldens:
        _pin_digests({POPULATION_PIN: pin})
    else:
        assert _pinned_digests().get(POPULATION_PIN) == pin, \
            "criterion-2 population events.jsonl digest moved"
    report = derive_metrics(world.log, cfg)
    t = report["transactions"]
    n = t["false_commit_count"]  # tampered AND committed
    detected = t["tampered_committed_detected"]
    assert n >= 10_000, f"only {n} tampered commits; need >= 10^4"
    p = cfg.inspection.rate_txn
    sigma = math.sqrt(p * (1 - p) / n)
    fraction = detected / n
    assert fraction >= p - 3 * sigma, \
        f"detected {fraction:.4f} < {p - 3 * sigma:.4f}"
    _report(f"PASS criterion 2: boundary shows {false_off} false commits with "
            f"inspections off; at p=0.05 detected {detected}/{n} = "
            f"{fraction:.4f} >= {p - 3 * sigma:.4f}")


# ------------------------------------------------------------------ #
# 3. liveness in the honest baseline
# ------------------------------------------------------------------ #

def test_criterion_3_baseline_liveness():
    cfg = get_scenario("baseline")
    world = run_world(cfg)
    report = derive_metrics(world.log, cfg)
    lv = report["liveness"]
    t = report["transactions"]
    assert t["submitted"] > 0
    assert t["committed"] == t["submitted"]
    assert lv["committed_within_bound"] == t["committed"]
    assert lv["liveness_ok"]
    _report(f"PASS criterion 3: baseline committed {t['committed']}/"
            f"{t['submitted']} txns, all within {lv['bound_ticks']} ticks "
            f"(max observed {lv['commit_latency']['max']})")


# ------------------------------------------------------------------ #
# 4. sybil resistance
# ------------------------------------------------------------------ #

def test_criterion_4_sybil_resistance():
    # zero-stake flood: nothing activates
    cfg = get_scenario("sybil_flood")
    world = run_world(cfg)
    sybil_actives = [p for p, a in world.actors.items() if a.role == "sybil"]
    assert sybil_actives == []
    rejected = [e for e in world.log if e.kind == "session_rejected"
                and e.detail.get("reason") == "stake"]
    assert len(rejected) == 1000

    # with stake: active, but weight is exactly the stake/reputation formula
    cfg2 = get_scenario("sybil_flood")
    cfg2.adversaries = [AdversarySpec(kind="sybil_flood", count=50,
                                      params={"stake": 100})]
    world2 = build_world(cfg2)
    sybils = [p for p, a in world2.actors.items() if a.role == "sybil"]
    assert len(sybils) == 50
    total_stake = active_stake_total(world2)
    sw = cfg2.consensus.stake_weight
    for sybil in sybils:
        expected = sw * world2.stake_accounts[sybil].staked / total_stake \
            + (1 - sw) * world2.reputation_accounts[sybil].score
        assert abs(vote_weight(world2, sybil) - expected) < 1e-12
    honest = next(p for p, a in world2.actors.items()
                  if a.role == "honest_client")
    assert abs(vote_weight(world2, sybils[0])
               - vote_weight(world2, honest)) < 1e-12
    _report("PASS criterion 4: 1000 zero-stake registrations -> 0 active "
            "sybils; staked sybils carry exactly the formula weight")


# ------------------------------------------------------------------ #
# 5. deterrence identity
# ------------------------------------------------------------------ #

def test_criterion_5_deterrence_identity():
    margin = deterrence_margin(1.0, 0.05, 50.0)
    assert margin == pytest.approx(-1.55)
    rng = SeededRng(20260811)
    attempts = 1_000_000
    avg = simulate_cheater_average_payoff(rng, attempts, 0.05, 1.0, 50.0)
    rel_err = abs(avg - margin) / abs(margin)
    assert rel_err < 0.05, f"avg {avg:.4f} vs margin {margin}: {rel_err:.3%}"
    _report(f"PASS criterion 5: cheater average payoff {avg:.4f} vs margin "
            f"{margin} over {attempts} attempts ({rel_err:.3%} relative error)")


# ------------------------------------------------------------------ #
# 6. anomaly detector calibration
# ------------------------------------------------------------------ #

def test_criterion_6_anomaly_calibration():
    # point-outlier rate on a stationary unit Gaussian
    baseline = StreamBaseline("cal", 100)
    rng = SeededRng(314159)
    n = 100_000
    alerts = 0
    for i in range(n):
        if baseline.feed(gauss(rng), i)[1] is not None:
            alerts += 1
    rate = alerts / (n - 100)
    expected = 2 * statistics.NormalDist().cdf(-3.0)
    assert abs(rate - expected) < 0.001, f"rate {rate:.5f}"

    # CUSUM detection of a +5 sigma shift within <= 10 samples
    detected_fast = 0
    trials = 1000
    for seed in range(trials):
        b = StreamBaseline("cp", 100)
        trial_rng = SeededRng(500_000 + seed)
        shift_at = 140
        for i in range(shift_at + 12):
            x = gauss(trial_rng) + (5.0 if i >= shift_at else 0.0)
            cp, _ = b.feed(x, i)
            if cp is not None and i >= shift_at:
                if i - shift_at + 1 <= 10:
                    detected_fast += 1
                break
    assert detected_fast >= 0.95 * trials, f"{detected_fast}/{trials}"
    _report(f"PASS criterion 6: point-alert rate {rate:.4%} within "
            f"{expected:.4%} +- 0.1%; 5-sigma shift caught <= 10 samples in "
            f"{detected_fast}/{trials} trials")


# ------------------------------------------------------------------ #
# 7. determinism gate and golden regression
# ------------------------------------------------------------------ #

def test_criterion_7_determinism_gate(tmp_path, update_goldens, monkeypatch):
    # every audit of an in-world signature is decided by construction, so no
    # run reads a signature's bytes, the one way to an Ed25519 sign or verify
    read = record_signature_reads(monkeypatch)
    cfg_path = tmp_path / "baseline.json"
    from gdpsim.config import dump_config
    cfg_path.write_text(dump_config(get_scenario("baseline")))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert cli_main(["diff", str(out_a / "report.json"),
                     str(out_b / "report.json")]) == 0
    assert (out_a / "events.jsonl").read_bytes() == \
        (out_b / "events.jsonl").read_bytes()

    GOLDEN_DIR.mkdir(exist_ok=True)
    mismatched = []
    digests = {}
    for name in sorted(BUILTIN_SCENARIOS):
        cfg = get_scenario(name)
        world = run_world(cfg)
        report = derive_metrics(world.log, cfg)
        out_dir = tmp_path / name
        write_outputs(world, report, out_dir)
        files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(out_dir.iterdir())}
        digests[name] = {
            "events_sha256": files["events.jsonl"],
            "files_sha256": files,
            "snapshot_digest": snapshot_digest(world),
        }
        golden_path = GOLDEN_DIR / f"{name}.report.json"
        if update_goldens:
            golden_path.write_text(json.dumps(report, indent=2,
                                              sort_keys=True) + "\n")
            continue
        assert golden_path.exists(), \
            f"golden missing for {name}; run pytest --update-goldens"
        golden = json.loads(golden_path.read_text())
        if golden != report:
            mismatched.append(name)
    assert read == {}, "a built-in scenario read a signature's bytes"
    if update_goldens:
        _pin_digests(digests)
        return
    assert not mismatched, f"golden regression: {mismatched}"
    assert DIGESTS_PATH.exists(), \
        "golden digests missing; run pytest --update-goldens"
    golden_digests = _pinned_digests()
    golden_digests.pop(POPULATION_PIN, None)  # criterion 2 checks that one
    moved = sorted(name for name in set(golden_digests) | set(digests)
                   if golden_digests.get(name) != digests.get(name))
    assert not moved, f"output file or snapshot digest moved: {moved}"
    _report("PASS criterion 7: identical config+seed reruns byte-identical; "
            "golden reports, snapshot digests and the sha256 of every output "
            f"file match for all {len(BUILTIN_SCENARIOS)} scenarios, none of "
            "which reads a signature's bytes")


def _compensated_sum(iterable, /, start=0):
    """``sum`` by CPython 3.12's rule: ints are added exactly, then floats
    with Neumaier compensation, which is added once at the end when it is
    finite; any other operand falls back to ``+``, dropping the
    compensation."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, c = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
            elif isinstance(item, int) and -2 ** 63 <= item < 2 ** 63:
                total += float(item)
            else:
                result = total + item
                break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in it:
        result = result + item
    return result


def test_event_bytes_do_not_depend_on_sum_rounding(tmp_path, monkeypatch):
    """Python 3.12 made ``sum`` of floats compensated; with it, every
    built-in scenario must still write the pinned ``events.jsonl``."""
    assert _compensated_sum([0.1] * 10) == 1.0  # a plain loop: 0.9999999999999999
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    pins = _pinned_digests()
    moved = []
    for name in sorted(BUILTIN_SCENARIOS):
        cfg = get_scenario(name)
        world = run_world(cfg)
        out_dir = tmp_path / name
        out_dir.mkdir()
        write_log(world.log, out_dir)
        path = out_dir / "events.jsonl"
        if hashlib.sha256(path.read_bytes()).hexdigest() != \
                pins[name]["events_sha256"]:
            moved.append(name)
        golden = json.loads((GOLDEN_DIR / f"{name}.report.json").read_text())
        if derive_metrics(world.log, cfg) != golden:
            moved.append(f"{name}.report.json")
    assert not moved, f"outputs moved under a compensated sum: {moved}"


def _noisy_window_run() -> tuple:
    """m2 after 20,000 samples of ``gauss() * 1e3 + 0.1`` at window 100, and
    every alert's z-score, by ``repr``: a non-integral window, so each
    detector run takes the two-pass statistics."""
    rng = SeededRng(52)
    b = StreamBaseline("noisy", 100)
    z_scores = []
    for i in range(20_000):
        z_scores += [repr(a.z_score) for a in b.feed(gauss(rng) * 1e3 + 0.1, i)
                     if a is not None]
    return repr(stats(b)[1]), z_scores


def test_window_stats_do_not_depend_on_sum_rounding(monkeypatch):
    """A non-integral window's mean and m2 are plain left-to-right sums, so
    its alerts do not move under Python 3.12's compensated ``sum``."""
    plain = _noisy_window_run()
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert _noisy_window_run() == plain
    assert plain[0] == "109845146.93754211"  # what ``sum`` gave on 3.11
    assert len(plain[1]) == 101


# ------------------------------------------------------------------ #
# 8. exhaustive micro-oracles
# ------------------------------------------------------------------ #

def test_criterion_8_exhaustive_micro_oracle():
    checked = 0
    for k in range(1, 8):
        world = mini_world(panel__k=k, n_witness_pool=10)
        quorum = world.cfg.panel.effective_quorum()
        senders = world.sender_pool()
        for pattern in itertools.product(["valid", "invalid"], repeat=k):
            txn = transmission.submit_transaction(
                world, senders[0], senders[1], digest(b"p"))
            transmission.open_panel(world, txn,
                                    world.rng_selection.derive("o", checked))
            salts = {}
            for witness, kind in zip(txn.panel, pattern):
                verdict = Verdict.VALID if kind == "valid" else Verdict.INVALID
                salts[witness] = (verdict, world.actors[witness].make_salt())
                transmission.witness_commit(world, witness, txn, verdict,
                                            salts[witness][1])
            for witness in txn.panel:
                verdict, salt = salts[witness]
                transmission.witness_reveal(world, witness, txn, verdict, salt)
            world.tick = max(world.tick, txn.reveal_deadline_tick)
            status = transmission.aggregate_attestations(world, txn)
            assert status.value == aggregation_oracle(list(pattern), quorum), \
                f"k={k} pattern={pattern}"
            checked += 1

    vote_checked = 0
    for n_validators in range(1, 6):
        for pattern in itertools.product([True, False], repeat=n_validators):
            votes = [Vote(validator=b"%d" % i, proposal_digest=b"p",
                          accept=a, weight=1.0, signature=None)
                     for i, a in enumerate(pattern)]
            _, ok = tally(votes, float(n_validators), 0.5)
            assert ok == (sum(pattern) > n_validators / 2)
            vote_checked += 1
    _report(f"PASS criterion 8: {checked} attestation patterns (k<=7) and "
            f"{vote_checked} vote patterns (<=5 validators) match the "
            "brute-force oracles")


# ------------------------------------------------------------------ #
# 9. invariant suites over randomized scenarios
# ------------------------------------------------------------------ #

def _random_scenario(seed: int):
    gen = SeededRng(seed).derive("scenario")
    cfg = get_scenario("baseline")
    cfg.name = f"fuzz{seed}"
    cfg.seed = seed
    cfg.duration_ticks = 60 + gen.below(40)
    cfg.drain_ticks = 25
    cfg.txn_arrival_rate = 1.0 + gen.below(3)
    cfg.n_honest_devices = 2 + gen.below(3)
    cfg.n_witness_pool = 7 + gen.below(4)
    cfg.onboarding.revalidation_period = 40
    flavor = gen.below(6)
    if flavor == 1:
        cfg.adversaries = [AdversarySpec(kind="lazy_witness",
                                         count=1 + gen.below(2))]
    elif flavor == 2:
        cfg.adversaries = [AdversarySpec(kind="equivocating_witness", count=1)]
    elif flavor == 3:
        cfg.adversaries = [
            AdversarySpec(kind="tampering_sender",
                          params={"tamper_rate": 1.0}),
            AdversarySpec(kind="colluding_witnesses", count=3)]
    elif flavor == 4:
        cfg.adversaries = [AdversarySpec(kind="key_compromise",
                                         params={"at_tick": 10 + gen.below(20),
                                                 "victim_index": gen.below(5)})]
    elif flavor == 5:
        from gdpsim.config import OutageSpec
        cfg.adversaries = [AdversarySpec(kind="forged_sync_node", count=1)]
        cfg.outages = [OutageSpec(device_index=gen.below(5),
                                  start=10 + gen.below(10), duration=20)]
        cfg.inspection.rate_sync_verify = 1.0
    return cfg


_STAGE_ORDER = {"Mediation": 0, "CommunityReview": 1, "PanelSelection": 2,
                "FinalArbitration": 3, "Closed": 4, "Appealed": 5}


def _check_invariants(world, cfg):
    problems = []
    # token conservation and event-balance replay
    from gdpsim.incentives import conservation_gap
    if conservation_gap(world) > 1e-6:
        problems.append(f"conservation gap {conservation_gap(world)}")
    mismatches = replay_matches_world(world)
    if mismatches:
        problems.append(f"replay mismatches {list(mismatches)[:3]}")
    # reputation bounds
    for rep in world.reputation_accounts.values():
        if not 0.0 <= rep.score <= 1.0:
            problems.append(f"score out of bounds: {rep.score}")
    # chain integrity replay + every node's chain is a canonical prefix
    try:
        consensus.verify_chain(world, world.canonical.blocks)
    except Exception as exc:
        problems.append(f"canonical chain: {exc}")
    snapshot = snapshot_state(world)["devices"]
    for pub in world.devices:
        height = world.height(pub)
        if (height > world.canonical.height
                or snapshot[pub.hex()]["ledger_head"]
                != world.canonical.blocks[height].block_digest.hex()):
            problems.append(f"ledger of {pub.hex()[:8]} not a prefix")
    # committed transactions carry attestation quorum
    quorum = cfg.panel.effective_quorum()
    for block in world.canonical.blocks[1:]:
        for tid in block.txn_ids:
            txn = world.transactions.get(tid)
            if txn is None:
                continue
            valid = sum(1 for a in txn.attestations.values()
                        if a.revealed_verdict is Verdict.VALID
                        and not a.equivocated)
            if valid < quorum:
                problems.append(f"committed without quorum: {tid.hex()[:8]}")
    # per-sender committed nonces are gapless and increasing
    per_sender = {}
    for block in world.canonical.blocks[1:]:
        for tid in block.txn_ids:
            txn = world.transactions.get(tid)
            if txn is not None:
                per_sender.setdefault(txn.sender, []).append(txn.nonce)
    for sender, nonces in per_sender.items():
        if nonces != list(range(len(nonces))):
            problems.append(f"nonce gap for {sender.hex()[:8]}: {nonces[:6]}")
    # dispute stage monotonicity
    stages = {}
    for ev in world.log:
        if ev.kind == "dispute_stage":
            stages.setdefault(ev.subject, []).append(
                _STAGE_ORDER[ev.detail["stage"]])
    for dispute_id, seq in stages.items():
        if seq != sorted(seq):
            problems.append(f"stage regression in {dispute_id}")
    # hold consistency: one open quarantine or one temp ban per device,
    # and only open disputes in world state
    quarantined = {pub for pub, profile in world.devices.items()
                   if profile.status is DeviceStatus.QUARANTINED}
    if quarantined != set(world.quarantines):
        problems.append("quarantine holds differ from quarantined devices")
    if any(world.devices[pub].status is not DeviceStatus.BANNED
           or pub in world.quarantines for pub in world.ban_until):
        problems.append("a temp ban on a device that is not banned, "
                        "or is quarantined")
    if any(d.stage is DisputeStage.CLOSED for d in world.disputes.values()):
        problems.append("a closed dispute left among the open ones")
    # quarantine exclusion
    windows = {}
    for ev in world.log:
        if ev.kind == "quarantine":
            windows.setdefault(ev.subject, []).append([ev.tick, None])
        elif ev.kind == "quarantine_release":
            windows[ev.subject][-1][1] = ev.tick

    def quarantined_at(subject, tick):
        return any(start < tick and (end is None or tick < end)
                   for start, end in windows.get(subject, []))

    for ev in world.log:
        if ev.kind == "panel_selected":
            if any(quarantined_at(w, ev.tick) for w in ev.detail["witnesses"]):
                problems.append(f"quarantined witness on panel at {ev.tick}")
        elif ev.kind in ("vote", "proposal"):
            if quarantined_at(ev.actor, ev.tick):
                problems.append(f"quarantined {ev.kind} at {ev.tick}")
    # no silent inspection failures: each routes to a penalty, quarantine,
    # or dispute at the same tick
    downstream_ticks = {ev.tick for ev in world.log
                        if ev.kind in ("quarantine", "dispute_opened")
                        or (ev.kind == "incentive"
                            and ev.detail["delta"] <= 0)}
    for ev in world.log:
        if ev.kind == "inspection" and not ev.detail["passed"]:
            if ev.tick not in downstream_ticks:
                problems.append(f"silent inspection failure at {ev.tick}")
    return problems


def test_criterion_9_invariant_suites():
    failures = {}
    seeds = range(100)
    for seed in seeds:
        cfg = _random_scenario(seed)
        world = run_world(cfg)
        problems = _check_invariants(world, cfg)
        if problems:
            failures[seed] = problems
    assert not failures, f"invariant violations: {failures}"
    _report(f"PASS criterion 9: token conservation, reputation bounds, chain "
            f"integrity, nonce gaplessness, stage monotonicity, quarantine "
            f"exclusion, hold consistency, and ledger prefix consistency "
            f"hold across "
            f"{len(list(seeds))} randomized scenarios")
