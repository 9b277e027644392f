"""Append-only world event log and the per-module CSV exports.

The log is the source of truth: metrics are derived from it, replay folds it
back into a state snapshot, and investigations slice it. Detail payloads are
JSON-serializable dicts with stable key order when written out.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from contextlib import ExitStack
from pathlib import Path


class Event:
    """One logged event, as ``EventLog`` reads it back. ``actor`` is a public
    key hex, or "" for the network/world itself; ``subject`` is the id of the
    primary object (txn, device, dispute, ...). No field is written after the
    event is built. Events are equal when every field is equal, and
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


# the detail of every event appended with none
EMPTY_DETAIL: dict = {}


class SharedDetails(dict):
    """One event kind's details, one dict per distinct tuple of values,
    built on first use and shared by every event that logs those values
    (the log never writes a detail after the append). ``of`` keys each
    value by its exact type as well, so ``1``, ``1.0`` and ``True``, which
    compare equal but are written apart, never share a dict. The one pair
    the key cannot tell apart is ``0.0`` and ``-0.0``: no memo is fed a
    float that can be a negative zero."""

    __slots__ = ("names",)

    def __init__(self, *names: str):
        super().__init__()
        self.names = names

    def __missing__(self, key: tuple) -> dict:
        detail = self[key] = dict(zip(self.names, key[len(self.names):]))
        return detail

    def of(self, *values) -> dict:
        """The shared detail naming ``values`` in field order."""
        return self[(*map(type, values), *values)]


# ``refs_of`` a key that no event names
_NO_REFS = array("Q")


class EventLog:
    """Total-ordered append-only log; indices double as event references.

    The log keeps one column per field: tick, kind, actor, subject and
    detail, each a list indexed by ref. An event is no object of its own
    until a reader asks for one (``log[ref]``, iteration), so appending
    builds none and the cyclic collector has nothing per event to walk: the
    atom columns hold no container, and a detail dict holding only atoms is
    never tracked.

    Events arrive in non-decreasing tick order, which lets window queries
    bisect the tick column instead of scanning. A key index maps each
    event's subject and actor (once when they are equal) to the refs that
    name it, as an ``array`` of unsigned machine ints, so a ref costs 8
    bytes and no ``int`` object (the unsigned type appends in half the time
    of the signed one); refs enter in append order, so every key's array is
    ascending and bisects by ref.

    Details are never written after the append. ``append_row`` keeps the
    dict it is passed as the event's detail, so from then on the log owns
    it: neither the caller nor any reader writes it again, and one dict may
    be the detail of many events (a witness panel's equal reveals share
    one). ``append`` gathers its keyword arguments into a dict of their own,
    and every event appended with no detail shares the one empty dict
    ``EMPTY_DETAIL``.
    """

    def __init__(self):
        self._ticks: list = []
        self._kinds: list = []
        self._actors: list = []
        self._subjects: list = []
        self._details: list = []
        self._refs_by_key: dict[str, array] = {}

    def append(self, tick: int, kind: str, actor: str = "", subject: str = "",
               **detail) -> int:
        """Log an event whose detail is the keyword arguments; its ref."""
        return self.append_row(tick, kind, actor, subject,
                               detail if detail else EMPTY_DETAIL)

    def append_row(self, tick: int, kind: str, actor: str, subject: str,
                   detail: dict) -> int:
        """Log an event with ``detail`` kept as given; its ref. The log owns
        ``detail`` from here on: nothing writes it after this call."""
        ref = len(self._ticks)
        self._ticks.append(tick)
        self._kinds.append(kind)
        self._actors.append(actor)
        self._subjects.append(subject)
        self._details.append(detail)
        index = self._refs_by_key
        refs = index.get(subject)
        if refs is None:
            refs = index[subject] = array("Q")
        refs.append(ref)
        if actor != subject:
            refs = index.get(actor)
            if refs is None:
                refs = index[actor] = array("Q")
            refs.append(ref)
        return ref

    def __len__(self) -> int:
        return len(self._ticks)

    def __iter__(self):
        """Each event in ref order, built as it is reached."""
        return map(Event, self._ticks, self._kinds, self._actors,
                   self._subjects, self._details)

    def __getitem__(self, ref: int) -> Event:
        """The event at ``ref`` (negative refs count from the end)."""
        return Event(self._ticks[ref], self._kinds[ref], self._actors[ref],
                     self._subjects[ref], self._details[ref])

    def columns(self) -> tuple[list, list, list, list, list]:
        """The tick, kind, actor, subject and detail columns, each indexed
        by ref: the way to scan the log, or read one field of an event,
        without building an ``Event``. The lists are the log's own; callers
        read them and never mutate them."""
        return (self._ticks, self._kinds, self._actors, self._subjects,
                self._details)

    def exists(self, ref) -> bool:
        """Whether ``ref`` is an int naming a logged event. A bool is
        refused, although ``True == 1``: it names no event."""
        return (isinstance(ref, int) and not isinstance(ref, bool)
                and 0 <= ref < len(self._ticks))

    def refs_of(self, key: str) -> array:
        """Ascending refs of the events whose subject or actor is ``key``.

        The array is the index's own; callers read it and never mutate it.
        """
        return self._refs_by_key.get(key, _NO_REFS)

    def slice_around(self, center_tick: int, radius: int,
                     subject: str = None) -> list[int]:
        """Ascending refs of the events within +-radius ticks (never before
        tick 0); with a subject, only those whose subject or actor is that
        key."""
        ticks = self._ticks
        start = bisect_left(ticks, max(0, center_tick - radius))
        stop = bisect_right(ticks, center_tick + radius)
        if subject is None:
            return list(range(start, stop))
        keyed = self.refs_of(subject)
        return keyed[bisect_left(keyed, start):
                     bisect_left(keyed, stop)].tolist()


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


def _logged_types(tick, kind, actor, subject) -> bool:
    """Whether the tick is an ``int`` and the actor, kind and subject are
    ``str`` (exact types). Only such an event goes through a write's memos
    and ``_jsonl_line``: ``1 == True == 1.0`` would share a memo entry, and
    a bool or float tick would break the template."""
    return (type(tick) is int
            and type(actor) is type(kind) is type(subject) is str)


def _jsonl_line(tick, kind, actor, subject, detail_json: str,
                strings: _Encoded) -> str:
    """The line of an event of the logged types around its detail JSON,
    with ``strings`` a write's memo of encoded actors, kinds and subjects."""
    return (f'{{"actor":{strings[actor]},"detail":{detail_json},'
            f'"kind":{strings[kind]},"subject":{strings[subject]},'
            f'"tick":{tick}}}\n')


def _record_line(tick, kind, actor, subject, detail: dict) -> str:
    """The line of any event: one ``_encode`` of its whole record."""
    return _encode({"actor": actor, "detail": detail, "kind": kind,
                    "subject": subject, "tick": tick}) + "\n"


def encode_event(ev: Event) -> tuple[str, str]:
    """The event's ``events.jsonl`` line, byte-equal to ``json.dumps`` of the
    record with sorted keys, and the detail JSON inside it: the one-event
    reference for ``write_log``."""
    fields = ev.tick, ev.kind, ev.actor, ev.subject
    detail = _encode(ev.detail) if ev.detail else "{}"
    if _logged_types(*fields):
        return _jsonl_line(*fields, detail, _Encoded()), detail
    return _record_line(*fields, ev.detail), detail


# ``write_log`` encodes details a batch at a time: each ``_encode`` call builds
# a new C encoder, which costs more than encoding a typical detail does.
_BATCH = 512            # events per batch
_BREAK = "\x1e"         # put between a batch's details (ASCII record separator)
_SPLIT = "," + _encode(_BREAK) + ","


def _encode_details(details: list) -> list[str]:
    """The JSON of each detail, equal to ``encode_event``'s, from one
    ``_encode`` of a list of the non-empty details with ``_BREAK`` between
    them.

    The list's JSON is split back on ``_SPLIT``. Every split the encoder put
    between two details is found, because ``_SPLIT`` holds no brace while a
    detail's JSON starts with "{" and ends with "}", so no match straddles a
    detail's edge. A match inside a detail (``_BREAK`` as a list item) only
    adds pieces: then the count differs, and the batch takes one ``_encode``
    per detail.
    """
    full = [detail for detail in details if detail]
    if not full:
        return ["{}"] * len(details)
    items = [_BREAK] * (2 * len(full) - 1)
    items[::2] = full
    pieces = _encode(items)[1:-1].split(_SPLIT)
    if len(pieces) != len(full):
        pieces = [_encode(detail) for detail in full]
    pieces = iter(pieces)
    return [next(pieces) if detail else "{}" for detail in details]


def _encoded_batches(details: list):
    """The detail column in batches of up to ``_BATCH``, in ref order, each
    with its details' JSON."""
    for start in range(0, len(details), _BATCH):
        batch = details[start:start + _BATCH]
        yield batch, _encode_details(batch)


def read_events_jsonl(path: Path) -> EventLog:
    """The log an ``events.jsonl`` file holds, appended line by line. Each
    distinct string read as a kind, actor, subject or detail value, list
    items included, is one ``str`` across the log, as in a live log whose
    ids come from ``World.hexes``."""
    log = EventLog()
    strings: dict = {}

    def shared(value):
        if isinstance(value, str):
            return strings.setdefault(value, value)
        if isinstance(value, list):
            return [shared(item) for item in value]
        return value

    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            log.append_row(d["tick"], shared(d["kind"]), shared(d["actor"]),
                           shared(d["subject"]),
                           {key: shared(value)
                            for key, value in d["detail"].items()}
                           or EMPTY_DETAIL)
    return log


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


class _Cells(dict):
    """Each str and int's ``_cell``, computed on first use. Ticks, subjects,
    kinds and actors repeat across a log, so a write keeps one of these for
    its events of the logged types."""

    def __missing__(self, value) -> str:
        cell = self[value] = _cell(value)
        return cell


class _FreshCells:
    """``_Cells`` without the memo, for an event of other types."""

    def __getitem__(self, value) -> str:
        return _cell(value)


_FRESH = _FreshCells()


# Each table's line is built from an event's tick, kind, actor, subject and
# detail, its detail JSON and the write's ``_Cells`` (``_FRESH`` for an event
# of other types).

def _transaction_line(tick, kind, actor, subject, detail, detail_json,
                      cells) -> str:
    return (f"{cells[tick]},{cells[subject]},{cells[kind]},{cells[actor]},"
            f"{_detail_cell(detail_json)}\r\n")


def _alert_line(tick, kind, actor, subject, detail, detail_json,
                cells) -> str:
    return _line((tick, detail["stream"], subject, detail["alert_kind"],
                  detail["z_score"], detail["value"]))


def _incentive_line(tick, kind, actor, subject, detail, detail_json,
                    cells) -> str:
    return _line((tick, subject, detail["incentive_kind"], detail["delta"],
                  detail["cause"]))


def _dispute_line(tick, kind, actor, subject, detail, detail_json,
                  cells) -> str:
    stage = _cell(detail.get("stage", kind))
    return (f"{cells[tick]},{cells[subject]},{stage},"
            f"{_detail_cell(detail_json)}\r\n")


def _inspection_line(tick, kind, actor, subject, detail, detail_json,
                     cells) -> str:
    return _line((tick, detail["target_kind"], subject, detail["passed"],
                  ";".join(str(r) for r in detail.get("evidence", []))))


# file, header, the kinds it carries (no kind in two files) and its line

CSV_TABLES = (
    ("transactions.csv", ("tick", "txn_id", "event", "actor", "detail"),
     ("txn_created", "panel_selected", "attestation_commit",
      "attestation_reveal", "commit_mismatch", "reveal_missing", "txn_status",
      "txn_escalated", "txn_committed", "witness_eval", "objection"),
     _transaction_line),
    ("alerts.csv", ("tick", "stream", "subject", "kind", "z_score", "value"),
     ("alert",), _alert_line),
    ("incentives.csv", ("tick", "subject", "kind", "delta", "cause_ref"),
     ("incentive",), _incentive_line),
    ("disputes.csv", ("tick", "dispute_id", "stage", "detail"),
     ("dispute_opened", "dispute_stage", "verdict", "appeal"),
     _dispute_line),
    ("inspections.csv",
     ("tick", "target_kind", "target", "passed", "evidence_refs"),
     ("inspection",), _inspection_line),
)


def write_log(log: EventLog, out_dir: Path) -> None:
    """Write ``events.jsonl`` and every CSV table in one scan of the log's
    columns, encoding each detail once, writing each batch's
    ``events.jsonl`` lines at once and streaming each CSV line to its
    file."""
    strings, cells = _Encoded(), _Cells()
    ticks, kinds, actors, subjects, details = log.columns()
    with ExitStack() as stack:
        jsonl = stack.enter_context(open(out_dir / "events.jsonl", "w"))
        route = {}
        for name, header, table_kinds, row in CSV_TABLES:
            fh = stack.enter_context(open(out_dir / name, "w", newline=""))
            fh.write(_line(header))
            route.update((kind, (fh.write, row)) for kind in table_kinds)
        start = 0
        for batch, encoded in _encoded_batches(details):
            stop = start + len(batch)
            lines = []
            for tick, kind, actor, subject, detail, detail_json in zip(
                    ticks[start:stop], kinds[start:stop], actors[start:stop],
                    subjects[start:stop], batch, encoded):
                plain = _logged_types(tick, kind, actor, subject)
                lines.append(
                    _jsonl_line(tick, kind, actor, subject, detail_json,
                                strings) if plain
                    else _record_line(tick, kind, actor, subject, detail))
                routed = route.get(kind)
                if routed is not None:
                    write, row = routed
                    write(row(tick, kind, actor, subject, detail, detail_json,
                              cells if plain else _FRESH))
            jsonl.write("".join(lines))
            start = stop


def write_ledger_csv(blocks, path: Path) -> None:
    """Canonical chain export; one line per committed block."""
    with open(path, "w", newline="") as fh:
        fh.write(_line(("height", "parent_hex", "block_digest_hex", "proposer",
                        "txn_count", "accept_weight")))
        fh.writelines(_line((b.height, b.parent.hex(), b.block_digest.hex(),
                             b.proposer.hex(), len(b.txn_ids),
                             f"{b.accept_weight:.12g}"))
                      for b in blocks)
