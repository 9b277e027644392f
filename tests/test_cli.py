import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gdpsim
from gdpsim.cli import main
from gdpsim.config import InvalidConfig, dump_config, load_config
from gdpsim.scenarios import BUILTIN_SCENARIOS, get_scenario


def write_cfg(tmp_path, name="baseline", **edits) -> Path:
    cfg = get_scenario(name)
    for key, value in edits.items():
        setattr(cfg, key, value)
    path = tmp_path / "scenario.json"
    path.write_text(dump_config(cfg))
    return path


def small_baseline(tmp_path):
    return write_cfg(tmp_path, duration_ticks=100, drain_ticks=40)


def test_run_baseline_exit_zero(tmp_path, capsys):
    cfg = small_baseline(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert (out / "events.jsonl").exists()
    assert (out / "ledger.csv").exists()
    assert (out / "snapshot.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["safety_ok"] is True


def test_run_invalid_rate_names_field(tmp_path, capsys):
    cfg = small_baseline(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--set", "inspection.rate_txn=1.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "inspection.rate_txn" in captured.err


def test_run_safety_violation_exit_two(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", "builtin:collusion_at_quorum",
                 "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["transactions"]["false_commit_count"] > 0


def test_validate_normalized_dump(tmp_path, capsys):
    cfg = small_baseline(tmp_path)
    assert main(["validate", "--config", str(cfg)]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["panel"]["k"] == 5  # defaults filled and visible


def test_validate_fills_default_seed(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"n_honest_devices": 4, "n_witness_pool": 8}))
    assert main(["validate", "--config", str(path)]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["seed"] == 0


def test_validate_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("{not: [valid")
    assert main(["validate", "--config", str(path)]) == 1


def test_diff_identical_reports(tmp_path):
    cfg = small_baseline(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg), "--out", str(out_a)])
    main(["run", "--config", str(cfg), "--out", str(out_b)])
    assert main(["diff", str(out_a / "report.json"),
                 str(out_b / "report.json")]) == 0


def test_diff_different_seeds_lists_changes(tmp_path, capsys):
    cfg = small_baseline(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg), "--out", str(out_a)])
    main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "777"])
    capsys.readouterr()
    assert main(["diff", str(out_a / "report.json"),
                 str(out_b / "report.json")]) == 1
    assert "seed" in capsys.readouterr().out


def test_diff_unreadable_input(tmp_path):
    assert main(["diff", str(tmp_path / "missing.json"),
                 str(tmp_path / "missing2.json")]) == 1


def _diff(tmp_path, a, b) -> int:
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(a))
    path_b.write_text(json.dumps(b))
    return main(["diff", str(path_a), str(path_b)])


def test_diff_sees_an_empty_container_one_side_lacks(tmp_path, capsys):
    assert _diff(tmp_path, {"a": {}, "b": 1}, {"b": 1}) == 1
    assert "a: {} != <missing>" in capsys.readouterr().out
    assert _diff(tmp_path, {"a": [], "b": 1}, {"a": {}, "b": 1}) == 1
    assert _diff(tmp_path, {"a": {"c": []}}, {"a": {"c": []}}) == 0


def test_diff_compares_types_as_well_as_values(tmp_path, capsys):
    assert _diff(tmp_path, {"a": 1}, {"a": True}) == 1
    assert "a: 1 != true" in capsys.readouterr().out
    assert _diff(tmp_path, {"a": [0, 1.0]}, {"a": [False, 1]}) == 1
    out = capsys.readouterr().out
    assert "a[0]: 0 != false" in out and "a[1]: 1.0 != 1" in out
    assert _diff(tmp_path, {"a": "1"}, {"a": 1}) == 1
    assert _diff(tmp_path, {"a": "<missing>"}, {}) == 1
    assert _diff(tmp_path, {"a": float("nan")}, {"a": float("nan")}) == 0


def test_seed_override_equals_config_edit(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = small_baseline(tmp_path)
    main(["run", "--config", str(cfg_a), "--out", str(out_a), "--seed", "42"])
    cfg_edit = write_cfg(tmp_path, duration_ticks=100, drain_ticks=40, seed=42)
    main(["run", "--config", str(cfg_edit), "--out", str(out_b)])
    assert (out_a / "report.json").read_text() == \
        (out_b / "report.json").read_text()
    assert (out_a / "events.jsonl").read_bytes() == \
        (out_b / "events.jsonl").read_bytes()


def test_scenarios_lists_builtins(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out.split()
    for name in ("baseline", "sybil_flood", "collusion_below_quorum",
                 "collusion_at_quorum", "lazy_witnesses", "equivocation",
                 "forged_sync", "key_compromise"):
        assert name in out


def test_scenarios_emit(capsys):
    assert main(["scenarios", "--emit", "baseline"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["name"] == "baseline"


def test_unknown_verb_usage_error():
    assert main(["frobnicate"]) == 1


def test_yaml_config_supported(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "name: yaml-test\n"
        "seed: 5\n"
        "duration_ticks: 80\n"
        "drain_ticks: 30\n"
        "txn_arrival_rate: 1.0\n"
        "n_honest_devices: 3\n"
        "n_witness_pool: 8\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0


RATE_FIELDS = ("rate_txn", "rate_witness_deep", "rate_sync_verify",
               "rate_device", "rate_proposer_challenge")
# floats whose repr is in exponent form: below 1e-4, and from 1e16 up
rates = st.one_of(st.floats(min_value=0.0, max_value=1e-5),
                  st.floats(min_value=0.0, max_value=1.0))
amounts = st.one_of(st.floats(min_value=1e16, max_value=1e300),
                    st.floats(min_value=0.0, max_value=1e3))


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
@given(st.tuples(*[rates] * len(RATE_FIELDS)), amounts,
       st.integers(min_value=0, max_value=2**63))
@example((1e-05, 0.1, 0.02, 0.05, 0.1), 1e16, 0)
@settings(max_examples=25, deadline=None)
def test_dumped_config_loads_back_equal(name, drawn_rates, bond, seed):
    """``load_config`` of a written ``dump_config`` is the config it
    dumped, exponent-form floats (``1e-05``, ``1e+16``) included."""
    cfg = get_scenario(name)
    for rate_field, rate in zip(RATE_FIELDS, drawn_rates):
        setattr(cfg.inspection, rate_field, rate)
    cfg.incentives.appeal_bond = bond
    cfg.seed = seed
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg


@pytest.mark.parametrize("suffix, text, field", [
    (".yaml", "inspection:\n  rate_txn: 1e-05\n", "inspection.rate_txn"),
    (".json", '{"panel": {"k": "5"}}', "panel.k"),
    (".json", '{"txn_arrival_rate": null}', "txn_arrival_rate"),
    (".json", '{"outages": [{"duration": true}]}', "outages[0].duration"),
])
def test_a_non_number_in_a_numeric_field_is_named(tmp_path, suffix, text,
                                                  field):
    """YAML 1.1 reads ``1e-05`` as a string; that, and any other non-number
    in a numeric field, fails validation naming the field."""
    path = tmp_path / ("scenario" + suffix)
    path.write_text(text)
    with pytest.raises(InvalidConfig) as caught:
        load_config(path)
    assert caught.value.field == field


@pytest.mark.parametrize("override, field", [
    ("metrics_sample_every=0", "metrics_sample_every"),
    ("incentives.epoch_ticks=0", "incentives.epoch_ticks"),
    ("onboarding.totp_skew=-1", "onboarding.totp_skew"),
])
def test_a_value_that_would_break_the_run_is_refused(tmp_path, capsys,
                                                     override, field):
    """A sample period or epoch of 0 ticks would divide by zero in the
    first tick, and a negative TOTP skew would reject every device: each
    fails validation naming the field, before a run writes anything."""
    out = tmp_path / "out"
    assert main(["run", "--config", "builtin:baseline", "--out", str(out),
                 "--set", override]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not out.exists()


def test_importing_the_package_leaves_yaml_unloaded():
    """``load_config`` imports ``yaml`` itself, so importing the package
    and its world, in a fresh interpreter, loads no ``yaml``."""
    src = str(Path(gdpsim.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, gdpsim, gdpsim.world; "
         "print(gdpsim.__file__, 'yaml' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    module, loaded = done.stdout.split()
    assert Path(module) == Path(gdpsim.__file__)
    assert loaded == "False"


def test_output_file_column_contracts(tmp_path):
    cfg = write_cfg(tmp_path, name="equivocation", duration_ticks=120,
                    drain_ticks=40)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    headers = {
        "transactions.csv": "tick,txn_id,event,actor,detail",
        "alerts.csv": "tick,stream,subject,kind,z_score,value",
        "incentives.csv": "tick,subject,kind,delta,cause_ref",
        "disputes.csv": "tick,dispute_id,stage,detail",
        "inspections.csv": "tick,target_kind,target,passed,evidence_refs",
        "ledger.csv": "height,parent_hex,block_digest_hex,proposer,"
                      "txn_count,accept_weight",
    }
    for filename, header in headers.items():
        first = (out / filename).read_text().splitlines()[0]
        assert first == header, f"{filename}: {first}"
    snapshot = json.loads((out / "snapshot.json").read_text())
    assert set(snapshot) == {"schema_version", "state", "digest"}
    # digests and signatures serialize as lowercase hex
    ledger_rows = (out / "ledger.csv").read_text().splitlines()[1:]
    assert ledger_rows
    for row in ledger_rows:
        parent_hex = row.split(",")[1]
        assert parent_hex == parent_hex.lower()
        int(parent_hex, 16)
