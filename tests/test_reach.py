"""Reachability census: every ``def`` in the ``gdpsim`` package is called by
a whole run, or it is listed below with its reason.

A fresh interpreter (this file run as a script) imports ``gdpsim`` under
``sys.setprofile`` and runs each built-in at its default seed, plus one
short criterion-2 population, through ``run_world``, ``derive_metrics``,
``write_outputs`` and ``replay_matches_world``. A function is reached when
the profile sees a frame of its code. The fresh process makes import-time
calls count, and keeps a cache that an earlier test filled from hiding a
call.

Every other ``def`` must be listed in one of two tables:

- ``API``: reached through an entry point the runs do not take, such as the
  CLI, config I/O, the replay and analysis functions, and error paths;
- ``UNDRIVEN``: a protocol step of the paper that no built-in drives yet.

The census is exact in both directions. A listed function that a run
reaches fails it as well, so neither table can go stale. A function that
only tests call belongs in ``tests/``, not in either table.
"""

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

API = {
    # the command line
    "cli.main": "the `gdp-sim` console script",
    "cli.build_parser": "the CLI's argument parser, built by `main`",
    "cli._load": "reads `--config`: a `builtin:` name or a scenario file",
    "cli.cmd_run": "`gdp-sim run`",
    "cli.cmd_validate": "`gdp-sim validate`",
    "cli.cmd_scenarios": "`gdp-sim scenarios`",
    "cli.cmd_diff": "`gdp-sim diff`",
    "cli._flatten": "`gdp-sim diff` walks each report to its leaves",
    "cli._leaves": "`gdp-sim diff` compares two reports leaf by leaf",
    # config I/O
    "config.load_config": "reads a scenario file",
    "config.dump_config": "writes a scenario as JSON (`scenarios --emit`)",
    "config.ScenarioConfig.to_dict": "the mapping `dump_config` writes",
    "config.ScenarioConfig.from_dict": "builds a config from a loaded file",
    "config._build": "`from_dict`'s builder, one section at a time",
    "config.apply_overrides": "`gdp-sim run --set path=value`",
    "config._coerce": "types each `--set` value as its field",
    # error paths
    "errors.InvalidConfig.__init__": "a refused config names its field",
    "events._misfit": "`append_row` refusing a field of another type",
    # events and replay
    "events.Event._fields": "Event value semantics: its five fields",
    "events.Event.__eq__": "Event value semantics: equal by its fields",
    "events.Event.__repr__": "Event value semantics: printed by its fields",
    "events.EventLog.__iter__": "analysis API: a log's events in ref order",
    "events.encode_event": "analysis API: one event's `events.jsonl` line",
    "events.read_events_jsonl": "replay API: reads `events.jsonl` back",
    "events.read_events_jsonl.<locals>.shared":
        "replay API: one string per distinct value read back",
    "consensus.verify_chain": "replay API: re-verifies a chain from genesis",
    "consensus.Proposal.digest":
        "`propose_block` fills the digest cache, so it is hashed only for a "
        "proposal built another way",
    "metrics.snapshot_digest": "analysis API: the digest of a world's state",
    # analysis of the incentive design
    "incentives.token_totals": "analysis API: the token conservation terms",
    "incentives.conservation_gap":
        "analysis API: the conservation identity's gap, read after a run",
    "incentives.deterrence_margin":
        "analysis API: the expected payoff of cheating",
    "incentives.simulate_cheater_average_payoff":
        "analysis API: the cheater's payoff under stochastic checks",
    # the explicit-bytes Ed25519 path: no run computes signature bytes
    "primitives.Signature.sig": "computes or returns the Ed25519 bytes",
    "primitives.Signature.__eq__": "Signature value semantics, on its bytes",
    "primitives.Signature.__hash__": "Signature value semantics, on its bytes",
    "primitives.Signature.__repr__": "Signature value semantics, its bytes",
}

UNDRIVEN = {
    # escalation: a panel is seated only after a community review falls
    # short of `community_threshold`, and none in a built-in does
    "arbitration._draw_panel": "panel arbitration: draws the arbitrators",
    "arbitration.select_panel": "panel arbitration: seats the panel",
    "arbitration._majority": "panel arbitration: the panel's majority",
    "arbitration.arbitrate": "panel arbitration: the binding verdict",
    "actors.DeviceActor.panel_vote": "panel arbitration: an honest vote",
    "actors.ColludingWitness.panel_vote":
        "panel arbitration: a colluding vote",
    "actors.ColludingWitness.community_vote":
        "community review: the two collusion built-ins open no dispute, so "
        "no colluding witness votes",
    # no actor decides to appeal, so no step calls `appeal`
    "arbitration.appeal": "the single bonded appeal",
    "incentives.post_bond": "the appeal bond, posted by `appeal`",
    "incentives.settle_bond": "the appeal bond, settled by `appeal`",
    "transmission._txn_to_arbitration":
        "the hand-off to arbitration: no built-in txn stays Disputed through "
        "`max_escalations` re-runs or runs out of disjoint panels",
    "incentives.apply_longevity_bonus":
        "the longevity reward: `longevity_period` (1000 ticks) is longer "
        "than any built-in runs",
}

# the census population: criterion 2's, at 200 colluders and 80 ticks
COLLUDERS, TICKS, DRAIN, SEED = 200, 80, 20, 0


def package_dir() -> Path:
    # imported on call: the census script must import gdpsim under its profile
    import gdpsim
    return Path(gdpsim.__file__).parent


def defs() -> dict:
    """``(file, first line)`` -> ``module.qualname`` of every ``def`` in the
    package, nested ones included. A decorated function's code starts at
    its first decorator."""
    package, found = package_dir(), {}

    def visit(node, rel, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[rel, first] = f"{module}.{name}"
                visit(child, rel, module, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, module, prefix + child.name + ".")
            else:
                visit(child, rel, module, prefix)

    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package)
        visit(ast.parse(path.read_text()), str(rel),
              ".".join(rel.with_suffix("").parts), "")
    return found


def reached() -> list:
    """``[file, first line]`` of each package function a whole run calls,
    the file relative to the package. Run in a fresh interpreter."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from gdpsim.metrics import (derive_metrics, replay_matches_world,
                                    write_outputs)
        from gdpsim.scenarios import BUILTIN_SCENARIOS, get_scenario
        from gdpsim.world import run_world

        from conftest import population_cfg

        cfgs = [get_scenario(name) for name in BUILTIN_SCENARIOS]
        population = population_cfg(TICKS, DRAIN)
        population.seed = SEED
        population.adversaries[0].count = COLLUDERS
        cfgs.append(population)
        with tempfile.TemporaryDirectory() as out:
            for i, cfg in enumerate(cfgs):
                world = run_world(cfg)
                write_outputs(world, derive_metrics(world.log, cfg),
                              Path(out) / str(i))
                assert not replay_matches_world(world), cfg.name
    finally:
        sys.setprofile(None)
    package = str(package_dir())
    return sorted({(os.path.relpath(code.co_filename, package),
                    code.co_firstlineno) for code in seen
                   if code.co_filename.startswith(package + os.sep)})


def test_tables_name_live_defs_with_reasons():
    names = list(defs().values())
    assert len(names) == len(set(names)), \
        "two defs share a qualified name; the tables cannot tell them apart"
    assert not set(API) & set(UNDRIVEN)
    for table in (API, UNDRIVEN):
        stale = sorted(set(table) - set(names))
        assert not stale, f"listed, but no such def: {stale}"
        for name, reason in table.items():
            assert reason.strip(), name
            assert not re.search(r"\btests?\b", reason, re.I), \
                f"{name}: a def that only tests call belongs in tests/"


def test_every_def_is_reached_or_listed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(package_dir().parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    calls = {tuple(site) for site in json.loads(done.stdout)}
    found = defs()
    called = {name for site, name in found.items() if site in calls}
    listed = set(API) | set(UNDRIVEN)
    unlisted = sorted(set(found.values()) - called - listed)
    assert not unlisted, \
        f"no run calls these, and neither table lists them: {unlisted}"
    stale = sorted(called & listed)
    assert not stale, f"a run calls these, but a table lists them: {stale}"


if __name__ == "__main__":
    print(json.dumps(reached()))
