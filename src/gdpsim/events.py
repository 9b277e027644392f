"""Append-only world event log and the per-module CSV exports.

The log is the source of truth: metrics are derived from it, replay folds it
back into a state snapshot, and investigations slice it. Detail payloads are
JSON-serializable dicts with stable key order when written out.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Event:
    tick: int
    kind: str
    actor: str      # public key hex or "" for the network/world itself
    subject: str    # id of the primary object (txn, device, dispute, ...)
    detail: dict = field(default_factory=dict)


class EventLog:
    """Total-ordered append-only log; indices double as event references.

    Events arrive in non-decreasing tick order, which lets window queries
    bisect instead of scanning. A key index maps each event's subject and
    actor (once when they are equal) to the refs that name it; refs enter in
    append order, so every key's list is ascending and bisects by ref.
    """

    def __init__(self):
        self._events: list[Event] = []
        self._ticks: list[int] = []
        self._refs_by_key: dict[str, list[int]] = {}

    def append(self, tick: int, kind: str, actor: str = "", subject: str = "",
               **detail) -> int:
        ref = len(self._events)
        self._events.append(Event(tick, kind, actor, subject, detail))
        self._ticks.append(tick)
        index = self._refs_by_key
        index.setdefault(subject, []).append(ref)
        if actor != subject:
            index.setdefault(actor, []).append(ref)
        return ref

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, ref: int) -> Event:
        return self._events[ref]

    def exists(self, ref) -> bool:
        return isinstance(ref, int) and 0 <= ref < len(self._events)

    def refs_of(self, key: str) -> list[int]:
        """Ascending refs of the events whose subject or actor is ``key``.

        The list is the index's own; callers read it and never mutate it.
        """
        return self._refs_by_key.get(key, [])

    def slice_around(self, center_tick: int, radius: int,
                     subject: str = None) -> list[tuple[int, Event]]:
        """Events within +-radius ticks, as (ref, event) pairs; with a
        subject, only those whose subject or actor is that key."""
        lo = max(0, center_tick - radius)
        hi = center_tick + radius
        start = bisect_left(self._ticks, lo)
        stop = bisect_right(self._ticks, hi)
        if subject is None:
            refs = range(start, stop)
        else:
            keyed = self.refs_of(subject)
            refs = keyed[bisect_left(keyed, start):bisect_left(keyed, stop)]
        events = self._events
        return [(ref, events[ref]) for ref in refs]

    def by_kind(self, *kinds: str) -> list[Event]:
        wanted = set(kinds)
        return [ev for ev in self._events if ev.kind in wanted]


def _stable_detail(detail: dict) -> str:
    return json.dumps(detail, sort_keys=True, separators=(",", ":"))


def write_events_jsonl(log: EventLog, path: Path) -> None:
    with open(path, "w") as fh:
        for ev in log:
            fh.write(json.dumps(
                {"tick": ev.tick, "kind": ev.kind, "actor": ev.actor,
                 "subject": ev.subject, "detail": ev.detail},
                sort_keys=True, separators=(",", ":")) + "\n")


def read_events_jsonl(path: Path) -> list[Event]:
    out = []
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            out.append(Event(d["tick"], d["kind"], d["actor"], d["subject"],
                             d["detail"]))
    return out


# --- per-module CSV exports (stable column orders are a contract) ----------

TXN_EVENT_KINDS = (
    "txn_created", "panel_selected", "attestation_commit", "attestation_reveal",
    "commit_mismatch", "reveal_missing", "txn_status", "txn_escalated",
    "txn_committed", "witness_eval", "objection",
)


def write_transactions_csv(log: EventLog, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tick", "txn_id", "event", "actor", "detail"])
        for ev in log:
            if ev.kind in TXN_EVENT_KINDS:
                w.writerow([ev.tick, ev.subject, ev.kind, ev.actor,
                            _stable_detail(ev.detail)])


def write_alerts_csv(log: EventLog, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tick", "stream", "subject", "kind", "z_score", "value"])
        for ev in log:
            if ev.kind == "alert":
                d = ev.detail
                w.writerow([ev.tick, d["stream"], ev.subject, d["alert_kind"],
                            d["z_score"], d["value"]])


def write_incentives_csv(log: EventLog, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tick", "subject", "kind", "delta", "cause_ref"])
        for ev in log:
            if ev.kind == "incentive":
                d = ev.detail
                w.writerow([ev.tick, ev.subject, d["incentive_kind"], d["delta"],
                            d["cause"]])


def write_disputes_csv(log: EventLog, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tick", "dispute_id", "stage", "detail"])
        for ev in log:
            if ev.kind in ("dispute_opened", "dispute_stage", "verdict", "appeal"):
                w.writerow([ev.tick, ev.subject, ev.detail.get("stage", ev.kind),
                            _stable_detail(ev.detail)])


def write_inspections_csv(log: EventLog, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tick", "target_kind", "target", "passed", "evidence_refs"])
        for ev in log:
            if ev.kind == "inspection":
                d = ev.detail
                w.writerow([ev.tick, d["target_kind"], ev.subject, d["passed"],
                            ";".join(str(r) for r in d.get("evidence", []))])


def write_ledger_csv(blocks, path: Path) -> None:
    """Canonical chain export; one line per committed block."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["height", "parent_hex", "block_digest_hex", "proposer",
                    "txn_count", "accept_weight"])
        for b in blocks:
            w.writerow([b.height, b.parent.hex(), b.block_digest.hex(),
                        b.proposer.hex(), len(b.txn_ids), f"{b.accept_weight:.12g}"])
