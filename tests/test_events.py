"""Output encoding: the shared event line encoder and the one-scan exporter
against ``json.dumps`` and the per-file writers they replaced."""

import csv
import json

from hypothesis import given, settings, strategies as st

from gdpsim.events import (CSV_TABLES, Event, EventLog, encode_event,
                           write_events_jsonl, write_log)

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


def _reference_outputs(log, out_dir):
    out_dir.mkdir()
    _reference_events_jsonl(log, out_dir / "events.jsonl")
    _reference_csv(out_dir / "transactions.csv",
                   ["tick", "txn_id", "event", "actor", "detail"],
                   ([ev.tick, ev.subject, ev.kind, ev.actor,
                     _stable_detail(ev.detail)]
                    for ev in log if ev.kind in REFERENCE_TXN_KINDS))
    _reference_csv(out_dir / "alerts.csv",
                   ["tick", "stream", "subject", "kind", "z_score", "value"],
                   ([ev.tick, ev.detail["stream"], ev.subject,
                     ev.detail["alert_kind"], ev.detail["z_score"],
                     ev.detail["value"]]
                    for ev in log if ev.kind == "alert"))
    _reference_csv(out_dir / "incentives.csv",
                   ["tick", "subject", "kind", "delta", "cause_ref"],
                   ([ev.tick, ev.subject, ev.detail["incentive_kind"],
                     ev.detail["delta"], ev.detail["cause"]]
                    for ev in log if ev.kind == "incentive"))
    _reference_csv(out_dir / "disputes.csv",
                   ["tick", "dispute_id", "stage", "detail"],
                   ([ev.tick, ev.subject, ev.detail.get("stage", ev.kind),
                     _stable_detail(ev.detail)]
                    for ev in log if ev.kind in ("dispute_opened",
                                                 "dispute_stage", "verdict",
                                                 "appeal")))
    _reference_csv(out_dir / "inspections.csv",
                   ["tick", "target_kind", "target", "passed", "evidence_refs"],
                   ([ev.tick, ev.detail["target_kind"], ev.subject,
                     ev.detail["passed"],
                     ";".join(str(r) for r in ev.detail.get("evidence", []))]
                    for ev in log if ev.kind == "inspection"))


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


# --- the one-scan exporter equals the per-file writers ----------------------

def _mixed_log() -> EventLog:
    """Every routed kind with awkward field values, and kinds no CSV carries."""
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
    for tick, kind in enumerate(kinds * 2):
        for detail in details.get(kind, [{"n": tick, "of": kind}]):
            log.append(tick, kind, actor=f"actor-{tick % 3}",
                       subject=f"s,{tick}é", **detail)
    return log


def test_write_log_reproduces_the_per_file_writers(tmp_path):
    log = _mixed_log()
    _reference_outputs(log, tmp_path / "reference")
    (tmp_path / "one_scan").mkdir()
    write_log(log, tmp_path / "one_scan")
    names = sorted(p.name for p in (tmp_path / "reference").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "one_scan").iterdir())
    for name in names:
        reference = (tmp_path / "reference" / name).read_bytes()
        assert reference.count(b"\n") > 1, name
        assert (tmp_path / "one_scan" / name).read_bytes() == reference, name
    write_events_jsonl(log, tmp_path / "thin.jsonl")
    assert (tmp_path / "thin.jsonl").read_bytes() == \
        (tmp_path / "reference" / "events.jsonl").read_bytes()


def test_no_kind_is_routed_to_two_tables():
    kinds = [kind for _, _, table_kinds, _ in CSV_TABLES for kind in table_kinds]
    assert len(kinds) == len(set(kinds))
    assert len({name for name, *_ in CSV_TABLES}) == len(CSV_TABLES)
