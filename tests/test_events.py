"""Output encoding: the shared event line encoder, the one-scan exporter and
the CSV lines it builds against ``json.dumps`` and ``csv.writer``."""

import csv
import gc
import io
import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gdpsim import events
from gdpsim.events import (CSV_TABLES, Event, EventLog, encode_event,
                           write_ledger_csv, write_log)
from gdpsim.scenarios import get_scenario
from gdpsim.world import run_world

# --- reference writers: one scan and one json.dumps per file and row -------

REFERENCE_TXN_KINDS = (
    "txn_created", "panel_selected", "attestation_commit", "attestation_reveal",
    "commit_mismatch", "reveal_missing", "txn_status", "txn_escalated",
    "txn_committed", "witness_eval", "objection",
)


def _stable_detail(detail):
    return json.dumps(detail, sort_keys=True, separators=(",", ":"))


def _reference_events_jsonl(log, path):
    with open(path, "w") as fh:
        for ev in log:
            fh.write(json.dumps(
                {"tick": ev.tick, "kind": ev.kind, "actor": ev.actor,
                 "subject": ev.subject, "detail": ev.detail},
                sort_keys=True, separators=(",", ":")) + "\n")


def _reference_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


# file, header, kinds and the row csv.writer is given for one event
REFERENCE_TABLES = (
    ("transactions.csv", ["tick", "txn_id", "event", "actor", "detail"],
     REFERENCE_TXN_KINDS,
     lambda ev: [ev.tick, ev.subject, ev.kind, ev.actor,
                 _stable_detail(ev.detail)]),
    ("alerts.csv", ["tick", "stream", "subject", "kind", "z_score", "value"],
     ("alert",),
     lambda ev: [ev.tick, ev.detail["stream"], ev.subject,
                 ev.detail["alert_kind"], ev.detail["z_score"],
                 ev.detail["value"]]),
    ("incentives.csv", ["tick", "subject", "kind", "delta", "cause_ref"],
     ("incentive",),
     lambda ev: [ev.tick, ev.subject, ev.detail["incentive_kind"],
                 ev.detail["delta"], ev.detail["cause"]]),
    ("disputes.csv", ["tick", "dispute_id", "stage", "detail"],
     ("dispute_opened", "dispute_stage", "verdict", "appeal"),
     lambda ev: [ev.tick, ev.subject, ev.detail.get("stage", ev.kind),
                 _stable_detail(ev.detail)]),
    ("inspections.csv",
     ["tick", "target_kind", "target", "passed", "evidence_refs"],
     ("inspection",),
     lambda ev: [ev.tick, ev.detail["target_kind"], ev.subject,
                 ev.detail["passed"],
                 ";".join(str(r) for r in ev.detail.get("evidence", []))]),
)


def _reference_outputs(log, out_dir):
    out_dir.mkdir()
    _reference_events_jsonl(log, out_dir / "events.jsonl")
    for name, header, kinds, row in REFERENCE_TABLES:
        _reference_csv(out_dir / name, header,
                       (row(ev) for ev in log if ev.kind in kinds))


def _reference_ledger(blocks, path):
    _reference_csv(path, ["height", "parent_hex", "block_digest_hex",
                          "proposer", "txn_count", "accept_weight"],
                   ([b.height, b.parent.hex(), b.block_digest.hex(),
                     b.proposer.hex(), len(b.txn_ids),
                     f"{b.accept_weight:.12g}"] for b in blocks))


# --- the line encoder equals json.dumps of the whole record -----------------

awkward_text = st.one_of(
    st.text(max_size=12),
    st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\r\t ,;é€ \U0001f600',
            max_size=12))
json_leaves = st.one_of(
    st.none(), st.booleans(), awkward_text,
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0,
                     2**53 + 1, -(2**63)]))
json_details = st.dictionaries(
    awkward_text,
    st.recursive(json_leaves,
                 lambda inner: st.lists(inner, max_size=4)
                 | st.dictionaries(awkward_text, inner, max_size=4),
                 max_leaves=12),
    max_size=5)


def test_slice_around_clamps_the_window_at_tick_0():
    # radius 50 around tick 30 is the window [0, 80]: an event before tick
    # 0 stays out, although it lies within the radius
    log = EventLog()
    refs = [log.append(tick, "k", subject="s") for tick in (-1, 0, 80, 81)]
    for subject in (None, "s"):
        assert log.slice_around(30, 50, subject) == refs[1:3]


def test_appended_events_leave_the_collector_nothing_to_track():
    """An event is a row of atoms across the log's columns, and a detail
    dict of atoms is untracked: ten thousand appends add no object that
    the cyclic collector walks."""
    log = EventLog()
    log.append(0, "k", actor="a", subject="s")
    gc.collect()
    before = len(gc.get_objects())
    for tick in range(10_000):
        log.append(tick, "txn_status", actor="a", subject=f"t{tick % 8}",
                   status="Witnessed", weight=tick / 7, seen=True, note=None)
    gc.collect()
    assert len(gc.get_objects()) - before < 50


@given(st.integers(min_value=0, max_value=2**64), awkward_text, awkward_text,
       awkward_text, json_details)
@settings(max_examples=200, deadline=None)
def test_event_line_matches_json_dumps(tick, kind, actor, subject, detail):
    ev = Event(tick, kind, actor, subject, detail)
    record = {"tick": tick, "kind": kind, "actor": actor, "subject": subject,
              "detail": detail}
    line, detail_json = encode_event(ev)
    assert line == json.dumps(record, sort_keys=True,
                              separators=(",", ":")) + "\n"
    assert detail_json == json.dumps(detail, sort_keys=True,
                                     separators=(",", ":"))


B = events._BATCH
batch_leaves = st.one_of(
    json_leaves,
    st.sampled_from([events._BREAK, "a" + events._BREAK, events._SPLIT,
                     5e-324, -2.5e-310, -0.0, float("nan"), float("-inf")]),
    st.integers(min_value=2**64, max_value=2**80))
batch_details = st.one_of(
    st.just({}),
    st.dictionaries(
        st.one_of(awkward_text, st.just(events._BREAK)),
        st.recursive(batch_leaves,
                     lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(awkward_text, inner, max_size=4),
                     max_leaves=12),
        max_size=4),
    st.sampled_from([{"x": [0, events._BREAK, 1]},
                     {"y": [[events._BREAK, {}], events._BREAK, "z"]}]))


def _counting_encodes(calls: list):
    """Patch the shared encoder to append the type of each value it is
    given to ``calls``."""
    encode = events._encode

    def counting(value):
        calls.append(type(value))
        return encode(value)

    return mock.patch.object(events, "_encode", counting)


@given(st.lists(batch_details, min_size=1, max_size=12),
       st.lists(st.integers(min_value=0, max_value=11), min_size=1,
                max_size=12),
       st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1]))
@settings(max_examples=150, deadline=None)
def test_batch_encoding_equals_one_encode_per_detail(pool, picks, length):
    """Each batch's detail JSON equals ``_encode`` of each detail on its own
    (``"{}"`` for an empty one), and a batch whose details hold the split
    string in their JSON takes one ``_encode`` per detail instead."""
    details = [pool[picks[i % len(picks)] % len(pool)] for i in range(length)]
    calls = []
    with _counting_encodes(calls):
        batches = list(events._encoded_batches(details))
    encode = events._encode
    assert [len(batch) for batch, _ in batches] == \
        [min(B, length - start) for start in range(0, length, B)]
    assert [d for batch, _ in batches for d in batch] == details
    assert [d for _, batch_details in batches for d in batch_details] == \
        [encode(d) if d else "{}" for d in details]
    lists = dicts = 0
    for batch, _ in batches:
        full = [encode(detail) for detail in batch if detail]
        lists += bool(full)
        if any(events._SPLIT in detail for detail in full):
            dicts += len(full)
    assert (calls.count(list), calls.count(dict)) == (lists, dicts)


def test_a_log_with_no_break_encodes_its_details_a_batch_at_a_time(tmp_path):
    log = EventLog()
    for tick in range(2000):
        log.append(tick, "txn_status", actor="a", subject=f"t{tick}",
                   status="Witnessed", weight=tick / 7, votes=[tick, None])
    calls = []
    with _counting_encodes(calls):
        write_log(log, tmp_path)
    assert calls.count(list) <= -(-2000 // B)
    assert calls.count(dict) == 0


# --- the one-scan exporter equals the per-file writers ----------------------

def _mixed_log(repeats: int = 2, breaking: bool = False) -> EventLog:
    """Every routed kind with awkward field values, and kinds no CSV carries.
    With ``breaking``, one detail holds the batch encoder's break string as
    a list item, which sends its batch to the one-detail fallback."""
    details = {
        "alert": [{"stream": "txrate:ab", "alert_kind": "cusum",
                   "z_score": 5.25, "value": 3},
                  {"stream": "lat,\"x\"", "alert_kind": "point",
                   "z_score": float("inf"), "value": -0.0}],
        "incentive": [{"incentive_kind": "LazyWitness", "delta": -0.5,
                       "cause": "lazy_witness:0123456789abcdef"},
                      {"incentive_kind": "Bonus", "delta": 1, "cause": ""}],
        "inspection": [{"target_kind": "txn", "passed": False,
                        "evidence": [3, 7, 11]},
                       {"target_kind": "sync", "passed": True}],
        "dispute_stage": [{"stage": "Mediation", "note": "a\nb"}, {}],
        "verdict": [{"outcome": "upheld", "votes": [1, 0, None]}],
        "txn_status": [{"status": "Witnessed", "weight": 2**60}],
        "attestation_commit": [{}],
        "objection": [{"reason": "café \"quoted\", with commas"}],
    }
    kinds = [kind for _, _, table_kinds, _ in CSV_TABLES for kind in table_kinds]
    kinds += ["heartbeat", "block_committed", "key_compromised"]
    log = EventLog()
    for tick, kind in enumerate(kinds * repeats):
        for detail in details.get(kind, [{"n": tick, "of": kind}]):
            log.append(tick, kind, actor=f"actor-{tick % 3}",
                       subject=f"s,{tick}é", **detail)
        if breaking and tick == len(kinds):
            log.append(tick, "verdict", votes=[1, events._BREAK, 0],
                       note=events._BREAK)
    return log


def _assert_same_files(reference_dir, written_dir):
    names = sorted(p.name for p in reference_dir.iterdir())
    assert names == sorted(p.name for p in written_dir.iterdir())
    for name in names:
        assert (written_dir / name).read_bytes() == \
            (reference_dir / name).read_bytes(), name


def test_write_log_reproduces_the_per_file_writers(tmp_path):
    _assert_write_log_reproduces(_mixed_log(), tmp_path)


def test_a_detail_holding_the_break_string_is_written_the_same(tmp_path):
    """The first batch takes the one-detail fallback; the log spans two
    more batches that do not."""
    log = _mixed_log(50, breaking=True)
    assert len(log) > 2 * events._BATCH
    _assert_write_log_reproduces(log, tmp_path)


def _assert_write_log_reproduces(log, tmp_path):
    _reference_outputs(log, tmp_path / "reference")
    (tmp_path / "one_scan").mkdir()
    write_log(log, tmp_path / "one_scan")
    _assert_same_files(tmp_path / "reference", tmp_path / "one_scan")
    for path in (tmp_path / "reference").iterdir():
        assert path.read_bytes().count(b"\n") > 1, path.name
    # a second write, with memos of its own, writes the same events.jsonl
    (tmp_path / "thin").mkdir()
    write_log(log, tmp_path / "thin")
    assert (tmp_path / "thin" / "events.jsonl").read_bytes() == \
        (tmp_path / "reference" / "events.jsonl").read_bytes()


def test_fields_of_other_types_are_written_as_json_and_csv_write_them(
        tmp_path):
    """Actors ``1``, ``True`` and ``1.0`` are equal keys of a write's memos,
    and a bool or nan tick fits no line template: every such event's line
    must still equal ``json.dumps`` of its record, and its rows what
    ``csv.writer`` writes, in ``write_log`` and in ``encode_event``."""
    log = _mixed_log(1)
    for tick in (2, True, math.nan, 1.0):
        for actor in (1, True, 1.0, "1"):
            for subject in ("s", 0, False, -0.0):
                for kind in ("txn_status", "dispute_stage", 1):
                    log.append(tick, kind, actor=actor, subject=subject,
                               stage=subject)
    log.append(3, "objection", actor="1", subject="s", n=1)
    _assert_write_log_reproduces(log, tmp_path)
    for ev in log:
        assert encode_event(ev)[0] == json.dumps(
            {"tick": ev.tick, "kind": ev.kind, "actor": ev.actor,
             "subject": ev.subject, "detail": ev.detail},
            sort_keys=True, separators=(",", ":")) + "\n"


# what each built-in brings that the mixed log lacks: sybil_flood logs over a
# thousand distinct actors, lazy_witnesses thousands of incentives, and
# equivocation opens disputes that reach verdicts (lazy_witnesses opens none)
REAL_LOGS = {
    "sybil_flood": lambda log: len({ev.actor for ev in log}) > 1000,
    "lazy_witnesses": lambda log: sum(ev.kind == "incentive"
                                      for ev in log) > 1000,
    "equivocation": lambda log: any(ev.kind == "verdict" for ev in log),
}


@pytest.mark.parametrize("name", sorted(REAL_LOGS))
def test_real_logs_match_the_reference_writers(tmp_path, name):
    """Every output of a built-in against csv.writer and json.dumps, so the
    formatter is checked even if the pinned file hashes are re-recorded."""
    world = run_world(get_scenario(name))
    assert REAL_LOGS[name](world.log)
    blocks = world.canonical.blocks[1:]
    _reference_outputs(world.log, tmp_path / "reference")
    _reference_ledger(blocks, tmp_path / "reference" / "ledger.csv")
    (tmp_path / "written").mkdir()
    write_log(world.log, tmp_path / "written")
    write_ledger_csv(blocks, tmp_path / "written" / "ledger.csv")
    _assert_same_files(tmp_path / "reference", tmp_path / "written")


def test_events_without_a_detail_share_one_empty_dict():
    """A whole run stores every empty detail as the log's one shared
    ``EMPTY_DETAIL``, and nothing writes to it."""
    world = run_world(get_scenario("collusion_at_quorum"))
    details = world.log.columns()[4]
    empty = [detail for detail in details if not detail]
    assert len(empty) > 100
    assert all(detail is events.EMPTY_DETAIL for detail in empty)
    assert events.EMPTY_DETAIL == {}
    assert events.EventLog().append(0, "k") == 0


def test_witness_events_share_their_details():
    """After a whole run, the reveals and the witness evaluations each hold
    at most two detail dicts, one per value, the panel outcomes one dict
    per value, and the performance rewards one evaluation pays out all log
    the same dict."""
    world = run_world(get_scenario("collusion_at_quorum"))
    ticks, kinds, _, _, details = world.log.columns()
    for kind in ("attestation_reveal", "witness_eval", "txn_status"):
        logged = [detail for k, detail in zip(kinds, details) if k == kind]
        assert len(logged) > 50
        distinct = {json.dumps(detail, sort_keys=True) for detail in logged}
        assert len({id(detail) for detail in logged}) == len(distinct)
        assert len(distinct) <= 2 or kind == "txn_status"
    rewards: dict = {}  # (tick, cause) -> the reward details
    for tick, kind, detail in zip(ticks, kinds, details):
        if kind == "incentive" and detail["incentive_kind"] == "PerfReward":
            rewards.setdefault((tick, detail["cause"]), []).append(detail)
    assert sum(len(paid) > 1 for paid in rewards.values()) > 20
    assert all(len({id(detail) for detail in paid}) == 1
               for paid in rewards.values())


def test_every_detail_is_written_as_it_was_appended(tmp_path, monkeypatch):
    """A run that opens disputes writes each ``events.jsonl`` line as the
    event encoded at its append: no detail, shared or not, is written
    after it is logged."""
    appended = []
    append_row = EventLog.append_row

    def recording(log, tick, kind, actor, subject, detail):
        appended.append(encode_event(Event(tick, kind, actor, subject,
                                           detail))[0])
        return append_row(log, tick, kind, actor, subject, detail)

    monkeypatch.setattr(EventLog, "append_row", recording)
    world = run_world(get_scenario("equivocation"))
    assert any(ev.kind == "dispute_opened" for ev in world.log)
    write_log(world.log, tmp_path)
    with open(tmp_path / "events.jsonl") as fh:
        written = fh.readlines()
    assert len(appended) == len(world.log)
    assert written == appended


def test_no_kind_is_routed_to_two_tables():
    kinds = [kind for _, _, table_kinds, _ in CSV_TABLES for kind in table_kinds]
    assert len(kinds) == len(set(kinds))
    assert len({name for name, *_ in CSV_TABLES}) == len(CSV_TABLES)


# --- every built line equals csv.writer's row -------------------------------

def _fields(ev) -> tuple:
    """The arguments a table's line takes before the detail JSON."""
    return ev.tick, ev.kind, ev.actor, ev.subject, ev.detail


def _csv_line(row) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow(row)
    return buf.getvalue()


csv_text = st.one_of(st.just(""), st.text(alphabet=',"\r\n ;éa', max_size=8))
csv_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0,
                     5e-324, -2.5e-310]))
csv_cells = st.one_of(
    csv_text, csv_floats,
    st.integers(min_value=-2**80, max_value=2**80),
    st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1, 2**100]),
    st.booleans(), st.none())
row_details = st.fixed_dictionaries(
    {key: csv_cells for key in ("stream", "alert_kind", "z_score", "value",
                                "incentive_kind", "delta", "cause",
                                "target_kind", "passed")},
    optional={"stage": csv_cells, "evidence": st.lists(csv_cells, max_size=3)})


@given(st.integers(min_value=0, max_value=2**80), csv_text, csv_text,
       csv_text, row_details)
@settings(max_examples=300, deadline=None)
def test_every_table_row_matches_csv_writer(tick, kind, actor, subject,
                                            detail):
    assert [table[0] for table in CSV_TABLES] == \
        [table[0] for table in REFERENCE_TABLES]
    for ev in (Event(tick, kind, actor, subject, detail),
               Event(tick, kind, actor, subject, {})):
        detail_json = _stable_detail(ev.detail)
        for (name, header, _, row), (_, ref_header, _, reference) in zip(
                CSV_TABLES, REFERENCE_TABLES):
            assert list(header) == ref_header, name
            try:
                expected = _csv_line(reference(ev))
            except KeyError:  # a table whose row reads a key {} lacks
                continue
            assert row(*_fields(ev), detail_json, events._Cells()) == \
                expected, name


# values equal across types (1 == True == 1.0, 0.0 == -0.0) and strings
# that read like them
memo_values = st.sampled_from([0, 1, 2**70, True, False, 0.0, -0.0, 1.0,
                               None, "", "1", "True", "0.0", "a,b", 'q"'])
memo_texts = st.one_of(st.sampled_from(["", "1", "True", "a,b"]), memo_values)
_full_detail = {key: 0 for key in ("stream", "alert_kind", "z_score", "value",
                                   "incentive_kind", "delta", "cause",
                                   "target_kind", "passed")}


@given(st.lists(st.tuples(memo_values, memo_texts, memo_texts, memo_texts,
                          row_details),
                min_size=1, max_size=12))
@example([(1, "k", "a", "s", _full_detail),
          (True, "k", "a", "s", _full_detail)])
@example([(0.0, "k", "a", "s", _full_detail),
          (-0.0, "k", "a", "s", dict(_full_detail, stage=-0.0))])
@settings(max_examples=300, deadline=None)
def test_a_shared_cell_memo_builds_what_fresh_memos_build(rows):
    """A write shares one ``_Cells`` across the rows of its events of the
    logged types and builds any other event's cells afresh; each row must
    still equal the row built with no memo."""
    shared = events._Cells()
    for tick, kind, actor, subject, detail in rows:
        detail_json = _stable_detail(detail)
        memo = (shared if events._logged_types(tick, kind, actor, subject)
                else events._FRESH)
        for name, _, _, row in CSV_TABLES:
            assert row(tick, kind, actor, subject, detail, detail_json,
                       memo) == \
                row(tick, kind, actor, subject, detail, detail_json,
                    events._FRESH), name


ledger_blocks = st.builds(
    SimpleNamespace,
    height=st.integers(min_value=0, max_value=2**80),
    parent=st.binary(max_size=8), block_digest=st.binary(max_size=8),
    proposer=st.binary(max_size=8), txn_ids=st.lists(st.none(), max_size=3),
    accept_weight=csv_floats)


@given(st.lists(ledger_blocks, max_size=4))
@settings(max_examples=100, deadline=None)
def test_ledger_rows_match_csv_writer(blocks):
    with tempfile.TemporaryDirectory() as tmp:
        written, reference = Path(tmp, "written.csv"), Path(tmp, "ref.csv")
        write_ledger_csv(blocks, written)
        _reference_ledger(blocks, reference)
        assert written.read_bytes() == reference.read_bytes()
