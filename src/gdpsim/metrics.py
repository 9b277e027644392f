"""Metrics, reports, snapshots, and event-log replay.

The report is derived exclusively from the event log, never from live world
state, so re-deriving it from the written ``events.jsonl`` reproduces it
bit for bit. The replay fold reconstructs a state snapshot from events alone
and must match the live world's snapshot digest.
"""

from __future__ import annotations

import json
from pathlib import Path

from .consensus import genesis_block
from .events import (
    EventLog,
    write_alerts_csv,
    write_disputes_csv,
    write_events_jsonl,
    write_incentives_csv,
    write_inspections_csv,
    write_ledger_csv,
    write_transactions_csv,
)
from .primitives import digest

REPORT_SCHEMA_VERSION = 1


def _dist(values: list) -> dict:
    if not values:
        return {"count": 0, "mean": None, "min": None, "max": None,
                "p50": None, "p95": None}
    vs = sorted(values)
    n = len(vs)
    return {
        "count": n,
        "mean": round(sum(vs) / n, 9),
        "min": vs[0],
        "max": vs[-1],
        "p50": vs[n // 2],
        "p95": vs[min(n - 1, (95 * n) // 100)],
    }


def liveness_bound(cfg) -> int:
    """Worst-case commit latency for an honest transaction: one witness
    round, up to three proposal rounds each stretched by the commit delay,
    plus the final delay window."""
    round_span = 1 + cfg.inspection.max_commit_delay
    return cfg.panel.reveal_deadline + 3 * round_span + cfg.inspection.max_commit_delay


def derive_metrics(events, cfg, scenario_name: str = "") -> dict:
    """Fold the event log into the structured metrics report."""
    submitted = 0
    tampered_submitted = 0
    committed = 0
    false_commits = 0
    tampered_committed = set()
    detected_tampered = set()
    created_tick: dict = {}
    tampered_flag: dict = {}
    commit_latencies = []
    detection_latencies = []
    rejected = 0
    disputed_terminal = 0
    alerts = {"PointOutlier": 0, "Changepoint": 0}
    inspections_total = 0
    inspections_failed = 0
    inspections_by_kind: dict = {}
    disputes_opened = 0
    verdicts = 0
    verdicts_by_body: dict = {}
    at_fault_count = 0
    appeals = 0
    quarantines = 0
    incentive_deltas: dict = {}
    deposited = 0.0
    minted = 0.0
    forfeited = 0.0
    rep_samples: dict = {}
    onboard_rejected = 0
    finalized = 0
    final_tick = 0
    status_terminal: dict = {}

    for ev in events:
        final_tick = max(final_tick, ev.tick)
        kind = ev.kind
        if kind == "txn_created":
            submitted += 1
            created_tick[ev.subject] = ev.tick
            flag = bool(ev.detail.get("tampered"))
            tampered_flag[ev.subject] = flag
            if flag:
                tampered_submitted += 1
        elif kind == "txn_committed":
            committed += 1
            commit_latencies.append(ev.detail["latency"])
            if tampered_flag.get(ev.subject):
                false_commits += 1
                tampered_committed.add(ev.subject)
        elif kind == "txn_status":
            status_terminal[ev.subject] = ev.detail["status"]
        elif kind == "alert":
            alerts[ev.detail["alert_kind"]] = alerts.get(ev.detail["alert_kind"], 0) + 1
        elif kind == "inspection":
            inspections_total += 1
            tk = ev.detail["target_kind"]
            inspections_by_kind[tk] = inspections_by_kind.get(tk, 0) + 1
            if not ev.detail["passed"]:
                inspections_failed += 1
                if tk == "Transaction" and tampered_flag.get(ev.subject):
                    detected_tampered.add(ev.subject)
                    detection_latencies.append(
                        ev.tick - created_tick.get(ev.subject, ev.tick))
        elif kind == "dispute_opened":
            disputes_opened += 1
        elif kind == "verdict":
            verdicts += 1
            body = ev.detail["body"]
            verdicts_by_body[body] = verdicts_by_body.get(body, 0) + 1
            if ev.detail["at_fault"]:
                at_fault_count += 1
        elif kind == "appeal":
            appeals += 1
        elif kind == "quarantine":
            quarantines += 1
        elif kind == "incentive":
            ikind = ev.detail["incentive_kind"]
            delta = ev.detail["delta"]
            incentive_deltas[ikind] = incentive_deltas.get(ikind, 0.0) + delta
            if ikind == "StakeDeposit":
                deposited += delta
            elif ikind in ("PerfReward", "ContribReward", "LongevityBonus"):
                minted += delta
            elif ikind == "StakeForfeit":
                forfeited += -delta
        elif kind == "session_rejected":
            onboard_rejected += 1
        elif kind == "device_finalized":
            finalized += 1
        elif kind == "rep_sample":
            rep_samples.setdefault(ev.subject, []).append(
                [ev.tick, ev.detail["mean"]])

    for subject, status in status_terminal.items():
        if status == "Rejected":
            rejected += 1
        elif status == "Disputed":
            disputed_terminal += 1

    bound = liveness_bound(cfg)
    within = sum(1 for lat in commit_latencies if lat <= bound)
    detection_fraction = (len(detected_tampered) / len(tampered_committed)
                          if tampered_committed else None)

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": scenario_name or cfg.name,
        "seed": cfg.seed,
        "duration_ticks": cfg.duration_ticks,
        "final_tick": final_tick,
        "transactions": {
            "submitted": submitted,
            "committed": committed,
            "rejected_by_witnesses": rejected,
            "terminal_disputed": disputed_terminal,
            "tampered_submitted": tampered_submitted,
            "false_commit_count": false_commits,
            "tampered_committed_detected": len(detected_tampered),
            "detection_fraction": (round(detection_fraction, 9)
                                   if detection_fraction is not None else None),
        },
        "liveness": {
            "bound_ticks": bound,
            "commit_latency": _dist(commit_latencies),
            "committed_within_bound": within,
            "all_submitted_committed": committed == submitted,
            "liveness_ok": committed == submitted and within == committed,
        },
        "safety_ok": false_commits == 0,
        "detection_latency": _dist(detection_latencies),
        "alerts": alerts,
        "inspections": {
            "total": inspections_total,
            "failed": inspections_failed,
            "by_kind": inspections_by_kind,
        },
        "disputes": {
            "opened": disputes_opened,
            "verdicts": verdicts,
            "by_body": verdicts_by_body,
            "at_fault": at_fault_count,
            "appeals": appeals,
        },
        "quarantines": quarantines,
        "onboarding": {
            "finalized": finalized,
            "rejected_sessions": onboard_rejected,
        },
        "stake_flows": {
            "deposited": round(deposited, 9),
            "minted": round(minted, 9),
            "forfeited": round(forfeited, 9),
            "by_kind": {k: round(v, 9) for k, v in sorted(incentive_deltas.items())},
        },
        "reputation_trajectories": {role: samples
                                    for role, samples in sorted(rep_samples.items())},
    }


# --------------------------------------------------------------------- #
# snapshot and replay
# --------------------------------------------------------------------- #

def snapshot_state(world) -> dict:
    """Canonical serializable view of world state (protocol-visible only)."""
    devices = {}
    for pub in sorted(world.devices):
        profile = world.devices[pub]
        acct = world.stake_accounts.get(pub)
        rep = world.reputation_accounts.get(pub)
        height = world.heights.get(pub)
        devices[pub.hex()] = {
            "status": profile.status.value,
            "staked": round(acct.staked, 9) if acct else None,
            "liquid": round(acct.liquid, 9) if acct else None,
            "offenses": acct.offense_count if acct else None,
            "score": round(rep.score, 9) if rep else None,
            "ledger_height": height,
            "ledger_head": world.canonical.blocks[height].block_digest.hex()
                           if height is not None else None,
        }
    txn_status: dict = {}
    for tid in sorted(world.transactions):
        txn_status[tid.hex()] = world.transactions[tid].status.value
    return {
        "tick": world.tick,
        "devices": devices,
        "transactions": txn_status,
        "canonical_height": world.canonical.height,
        "canonical_head": world.canonical.head.hex(),
        "treasury": round(world.treasury, 9),
        "bond_escrow": round(world.bond_escrow, 9),
        "total_deposited": round(world.total_deposited, 9),
        "total_minted": round(world.total_minted, 9),
    }


def snapshot_digest(world) -> str:
    body = json.dumps(snapshot_state(world), sort_keys=True,
                      separators=(",", ":"))
    return digest(body.encode()).hex()


def write_snapshot(world, path: Path) -> None:
    state = snapshot_state(world)
    payload = {"schema_version": REPORT_SCHEMA_VERSION, "state": state,
               "digest": snapshot_digest(world)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class ReplayState:
    """Mirror of protocol-visible state folded purely from events; a node's
    chain is its height into the replayed canonical chain."""

    def __init__(self):
        self.device_status: dict = {}
        self.staked: dict = {}
        self.liquid: dict = {}
        self.offenses: dict = {}
        self.score: dict = {}
        self.heights: dict = {}         # pub hex -> height into canonical
        self.canonical: list = [genesis_block().block_digest.hex()]
        self.txn_status: dict = {}
        self.treasury = 0.0
        self.bond_escrow = 0.0
        self.deposited = 0.0
        self.minted = 0.0
        self.tick = 0


def replay_events(events, cfg) -> ReplayState:
    """Fold the event log into a ReplayState.

    Covers lifecycle status, token flows, the canonical chain and each
    node's height into it; numeric account balances, scores and offense
    counts are reconstructed from incentive deltas.
    """
    st = ReplayState()
    inc = cfg.incentives

    for ev in events:
        st.tick = max(st.tick, ev.tick)
        kind = ev.kind
        d = ev.detail
        if kind == "device_finalized":
            st.device_status[ev.subject] = "Active"
            st.heights[ev.subject] = 0
        elif kind == "quarantine":
            st.device_status[ev.subject] = "Quarantined"
        elif kind == "quarantine_release":
            if st.device_status.get(ev.subject) == "Quarantined":
                st.device_status[ev.subject] = "Active"
        elif kind == "ban_release":
            st.device_status[ev.subject] = "Active"
        elif kind == "incentive":
            subject = ev.subject
            ikind = d["incentive_kind"]
            delta = d["delta"]
            if ikind == "StakeDeposit":
                st.staked[subject] = st.staked.get(subject, 0.0) + delta
                st.deposited += delta
                st.score.setdefault(subject, inc_initial(cfg))
            elif ikind in ("PerfReward", "ContribReward", "LongevityBonus"):
                st.liquid[subject] = st.liquid.get(subject, 0.0) + delta
                st.minted += delta
                if ikind == "PerfReward" and st.device_status.get(subject) != "Banned":
                    st.score[subject] = min(1.0, st.score.get(subject, 0.5)
                                            + inc.perf_rep_bonus)
            elif ikind == "StakeForfeit":
                amount = -delta
                # bond forfeitures drain the escrow; a stake forfeiture is
                # one offense (every penalty that forfeits counts one)
                if d["cause"].startswith("appeal:"):
                    st.bond_escrow -= amount
                else:
                    st.staked[subject] = st.staked.get(subject, 0.0) - amount
                    st.offenses[subject] = st.offenses.get(subject, 0) + 1
                st.treasury += amount
            elif ikind == "ReputationPenalty":
                if st.device_status.get(subject) != "Banned":
                    st.score[subject] = min(1.0, max(
                        0.0, st.score.get(subject, 0.5) + delta))
            elif ikind == "ReputationRestore":
                if st.device_status.get(subject) != "Banned":
                    st.score[subject] = min(1.0, st.score.get(subject, 0.5) + delta)
            elif ikind == "TempBan":
                st.device_status[subject] = "Banned"
            elif ikind == "PermBan":
                st.device_status[subject] = "Banned"
            elif ikind == "BondPosted":
                st.liquid[subject] = st.liquid.get(subject, 0.0) + delta
                st.bond_escrow += -delta
            elif ikind == "BondRefunded":
                st.liquid[subject] = st.liquid.get(subject, 0.0) + delta
                st.bond_escrow -= delta
        elif kind == "block_committed":
            st.canonical.append(ev.subject)
            for node in d["recipients"]:
                if st.heights.get(node) == d["height"] - 1:
                    st.heights[node] = d["height"]
        elif kind == "sync":
            st.heights[ev.subject] = min(d["to_height"],
                                         st.heights.get(ev.actor, 0))
        elif kind == "txn_created":
            st.txn_status[ev.subject] = "Pending"
        elif kind == "txn_status":
            st.txn_status[ev.subject] = d["status"]
        elif kind == "txn_escalated":
            st.txn_status[ev.subject] = "Pending"
        elif kind == "txn_committed":
            st.txn_status[ev.subject] = "Committed"
    return st


def inc_initial(cfg) -> float:
    return cfg.onboarding.initial_reputation


def replay_matches_world(world) -> dict:
    """Compare the replay fold with the live world; returns the mismatches."""
    st = replay_events(world.log, world.cfg)
    live = snapshot_state(world)
    mismatches = {}
    for pub_hex, dev in live["devices"].items():
        if st.device_status.get(pub_hex) != dev["status"]:
            mismatches[f"status:{pub_hex}"] = (st.device_status.get(pub_hex),
                                               dev["status"])
        if dev["staked"] is not None and abs(
                st.staked.get(pub_hex, 0.0) - dev["staked"]) > 1e-6:
            mismatches[f"staked:{pub_hex}"] = (st.staked.get(pub_hex, 0.0),
                                               dev["staked"])
        if dev["liquid"] is not None and abs(
                st.liquid.get(pub_hex, 0.0) - dev["liquid"]) > 1e-6:
            mismatches[f"liquid:{pub_hex}"] = (st.liquid.get(pub_hex, 0.0),
                                               dev["liquid"])
        if dev["score"] is not None and (
                pub_hex not in st.score
                or abs(st.score[pub_hex] - dev["score"]) > 1e-6):
            mismatches[f"score:{pub_hex}"] = (st.score.get(pub_hex),
                                              dev["score"])
        if dev["offenses"] is not None and (
                st.offenses.get(pub_hex, 0) != dev["offenses"]):
            mismatches[f"offenses:{pub_hex}"] = (st.offenses.get(pub_hex, 0),
                                                 dev["offenses"])
        height = st.heights.get(pub_hex)
        if height is not None:
            if dev["ledger_height"] != height:
                mismatches[f"height:{pub_hex}"] = (height, dev["ledger_height"])
            if dev["ledger_head"] != st.canonical[height]:
                mismatches[f"head:{pub_hex}"] = (st.canonical[height],
                                                 dev["ledger_head"])
    for key, replayed in (("canonical_height", len(st.canonical) - 1),
                          ("canonical_head", st.canonical[-1])):
        if live[key] != replayed:
            mismatches[key] = (replayed, live[key])
    for key, replayed in (("treasury", st.treasury),
                          ("bond_escrow", st.bond_escrow),
                          ("total_minted", st.minted),
                          ("total_deposited", st.deposited)):
        if abs(replayed - live[key]) > 1e-6:
            mismatches[key] = (replayed, live[key])
    for tid, status in live["transactions"].items():
        if st.txn_status.get(tid) != status:
            mismatches[f"txn:{tid}"] = (st.txn_status.get(tid), status)
    return mismatches


# --------------------------------------------------------------------- #
# output bundle
# --------------------------------------------------------------------- #

def write_outputs(world, report: dict, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    write_events_jsonl(world.log, out_dir / "events.jsonl")
    write_transactions_csv(world.log, out_dir / "transactions.csv")
    write_alerts_csv(world.log, out_dir / "alerts.csv")
    write_incentives_csv(world.log, out_dir / "incentives.csv")
    write_disputes_csv(world.log, out_dir / "disputes.csv")
    write_inspections_csv(world.log, out_dir / "inspections.csv")
    write_ledger_csv(world.canonical.blocks[1:], out_dir / "ledger.csv")
    write_snapshot(world, out_dir / "snapshot.json")
