"""Append-only world event log and the per-module CSV exports.

The log is the source of truth: metrics are derived from it, replay folds it
back into a state snapshot, and investigations slice it. Detail payloads are
JSON-serializable dicts with stable key order when written out.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from contextlib import ExitStack
from operator import attrgetter
from pathlib import Path


class Event:
    """One logged event. ``actor`` is a public key hex, or "" for the
    network/world itself; ``subject`` is the id of the primary object (txn,
    device, dispute, ...). No field is written after the event is built.

    A ``__slots__`` class rather than a frozen dataclass, because
    ``EventLog.append`` builds one per event and this builds in about a
    quarter of the time. Events are equal when every field is equal, and
    unhashable.
    """

    __slots__ = ("tick", "kind", "actor", "subject", "detail")

    def __init__(self, tick: int, kind: str, actor: str, subject: str,
                 detail: dict):
        self.tick = tick
        self.kind = kind
        self.actor = actor
        self.subject = subject
        self.detail = detail

    def _fields(self) -> tuple:
        return (self.tick, self.kind, self.actor, self.subject, self.detail)

    def __eq__(self, other):
        if not isinstance(other, Event):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return ("Event(tick=%r, kind=%r, actor=%r, subject=%r, detail=%r)"
                % self._fields())


_tick = attrgetter("tick")


class EventLog:
    """Total-ordered append-only log; indices double as event references.

    Events arrive in non-decreasing tick order, which lets window queries
    bisect instead of scanning. A key index maps each event's subject and
    actor (once when they are equal) to the refs that name it; refs enter in
    append order, so every key's list is ascending and bisects by ref.
    """

    def __init__(self):
        self._events: list[Event] = []
        self._refs_by_key: dict[str, list[int]] = {}

    def append(self, tick: int, kind: str, actor: str = "", subject: str = "",
               **detail) -> int:
        ref = len(self._events)
        self._events.append(Event(tick, kind, actor, subject, detail))
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
        events = self._events
        start = bisect_left(events, lo, key=_tick)
        stop = bisect_right(events, hi, key=_tick)
        if subject is None:
            refs = range(start, stop)
        else:
            keyed = self.refs_of(subject)
            refs = keyed[bisect_left(keyed, start):bisect_left(keyed, stop)]
        return [(ref, events[ref]) for ref in refs]


# One encoder serves every output file: json.dumps with these arguments builds
# a new encoder per call, and a shared one writes the same bytes.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _Encoded(dict):
    """Each string's JSON encoding, computed on first use. Actors, kinds and
    subjects repeat across a log, so a write keeps one of these for its own
    call and encodes each distinct string once."""

    def __missing__(self, text: str) -> str:
        encoded = self[text] = _encode(text)
        return encoded


def encode_event(ev: Event, strings: dict = None) -> tuple[str, str]:
    """The event's ``events.jsonl`` line, byte-equal to ``json.dumps`` of the
    record with sorted keys, and the detail JSON inside it. ``strings`` is a
    write's memo of encoded actors, kinds and subjects (see ``_Encoded``). A
    tick is an int, which formats as the encoder writes it."""
    if strings is None:
        strings = _Encoded()
    detail = _encode(ev.detail) if ev.detail else "{}"
    return (f'{{"actor":{strings[ev.actor]},"detail":{detail},'
            f'"kind":{strings[ev.kind]},"subject":{strings[ev.subject]},'
            f'"tick":{ev.tick}}}\n'), detail


def write_events_jsonl(log: EventLog, path: Path) -> None:
    strings = _Encoded()
    with open(path, "w") as fh:
        for ev in log:
            fh.write(encode_event(ev, strings)[0])


def read_events_jsonl(path: Path) -> list[Event]:
    out = []
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            out.append(Event(d["tick"], d["kind"], d["actor"], d["subject"],
                             d["detail"]))
    return out


# --- per-module CSV exports (stable column orders are a contract) ----------
# Every line is built here as a string, byte-equal to what csv.writer's default
# (excel) dialect writes: cells joined by ",", each line ended by "\r\n".
# Building a line this way costs a fraction of csv.writer's fixed work per row.

def _cell(value) -> str:
    """One CSV cell: a string is quoted, with each '"' doubled, iff it holds
    ',', '"', '\\r' or '\\n'; None is empty; anything else is ``str``."""
    if isinstance(value, str):
        if "," in value or '"' in value or "\r" in value or "\n" in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    return "" if value is None else str(value)


def _detail_cell(detail_json: str) -> str:
    """``_cell`` of an encoded detail, without the scan: it is "{}" or, since
    every key is a JSON string, it holds a '"'."""
    if detail_json == "{}":
        return detail_json
    return '"' + detail_json.replace('"', '""') + '"'


def _line(cells) -> str:
    return ",".join(map(_cell, cells)) + "\r\n"


# file, header, the kinds it carries (no kind in two files) and the line built
# from an event and its detail JSON

CSV_TABLES = (
    ("transactions.csv", ("tick", "txn_id", "event", "actor", "detail"),
     ("txn_created", "panel_selected", "attestation_commit",
      "attestation_reveal", "commit_mismatch", "reveal_missing", "txn_status",
      "txn_escalated", "txn_committed", "witness_eval", "objection"),
     lambda ev, dj: (f"{_cell(ev.tick)},{_cell(ev.subject)},"
                     f"{_cell(ev.kind)},{_cell(ev.actor)},"
                     f"{_detail_cell(dj)}\r\n")),
    ("alerts.csv", ("tick", "stream", "subject", "kind", "z_score", "value"),
     ("alert",),
     lambda ev, dj: _line((ev.tick, ev.detail["stream"], ev.subject,
                           ev.detail["alert_kind"], ev.detail["z_score"],
                           ev.detail["value"]))),
    ("incentives.csv", ("tick", "subject", "kind", "delta", "cause_ref"),
     ("incentive",),
     lambda ev, dj: _line((ev.tick, ev.subject, ev.detail["incentive_kind"],
                           ev.detail["delta"], ev.detail["cause"]))),
    ("disputes.csv", ("tick", "dispute_id", "stage", "detail"),
     ("dispute_opened", "dispute_stage", "verdict", "appeal"),
     lambda ev, dj: (f"{_cell(ev.tick)},{_cell(ev.subject)},"
                     f"{_cell(ev.detail.get('stage', ev.kind))},"
                     f"{_detail_cell(dj)}\r\n")),
    ("inspections.csv",
     ("tick", "target_kind", "target", "passed", "evidence_refs"),
     ("inspection",),
     lambda ev, dj: _line((ev.tick, ev.detail["target_kind"], ev.subject,
                           ev.detail["passed"],
                           ";".join(str(r) for r in
                                    ev.detail.get("evidence", []))))),
)


def write_log(log: EventLog, out_dir: Path) -> None:
    """Write ``events.jsonl`` and every CSV table in one scan of the log,
    encoding each detail once and streaming each line to its file."""
    strings = _Encoded()
    with ExitStack() as stack:
        jsonl = stack.enter_context(open(out_dir / "events.jsonl", "w"))
        route = {}
        for name, header, kinds, row in CSV_TABLES:
            fh = stack.enter_context(open(out_dir / name, "w", newline=""))
            fh.write(_line(header))
            route.update((kind, (fh.write, row)) for kind in kinds)
        for ev in log:
            line, detail = encode_event(ev, strings)
            jsonl.write(line)
            routed = route.get(ev.kind)
            if routed is not None:
                write, row = routed
                write(row(ev, detail))


def write_ledger_csv(blocks, path: Path) -> None:
    """Canonical chain export; one line per committed block."""
    with open(path, "w", newline="") as fh:
        fh.write(_line(("height", "parent_hex", "block_digest_hex", "proposer",
                        "txn_count", "accept_weight")))
        fh.writelines(_line((b.height, b.parent.hex(), b.block_digest.hex(),
                             b.proposer.hex(), len(b.txn_ids),
                             f"{b.accept_weight:.12g}"))
                      for b in blocks)
