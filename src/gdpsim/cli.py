"""Command-line front door: run scenarios, validate configs, diff reports.

Exit codes are a stable contract: 0 clean, 1 usage/config/diff problems,
2 protocol safety violation detected during a run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import (
    InvalidConfig,
    ScenarioConfig,
    apply_overrides,
    dump_config,
    load_config,
)
from .metrics import derive_metrics, write_outputs
from .scenarios import BUILTIN_SCENARIOS, get_scenario
from .world import run_world

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SAFETY = 2


def _load(config_path: str) -> ScenarioConfig:
    if config_path.startswith("builtin:"):
        name = config_path.split(":", 1)[1]
        try:
            return get_scenario(name)
        except KeyError as exc:
            raise InvalidConfig(config_path, str(exc)) from exc
    return load_config(config_path)


def cmd_run(args) -> int:
    try:
        cfg = _load(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        apply_overrides(cfg, args.set or [])
        cfg.validate()
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    world = run_world(cfg)
    report = derive_metrics(world.log, cfg)
    out_dir = Path(args.out)
    write_outputs(world, report, out_dir)

    safety_ok = report["safety_ok"]
    liveness_ok = report["liveness"]["liveness_ok"]
    print(f"scenario={report['scenario']} seed={cfg.seed} "
          f"committed={report['transactions']['committed']}"
          f"/{report['transactions']['submitted']} "
          f"false_commits={report['transactions']['false_commit_count']} "
          f"safety_ok={safety_ok} liveness_ok={liveness_ok}")
    print(f"outputs written to {out_dir}")
    if not safety_ok:
        return EXIT_SAFETY
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        cfg = _load(args.config)
        apply_overrides(cfg, args.set or [])
        cfg.validate()
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(dump_config(cfg))
    return EXIT_OK


def cmd_scenarios(args) -> int:
    if args.emit:
        try:
            cfg = get_scenario(args.emit)
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_CONFIG
        print(dump_config(cfg))
        return EXIT_OK
    for name in sorted(BUILTIN_SCENARIOS):
        print(name)
    return EXIT_OK


def _flatten(obj, prefix=""):
    """(path, leaf) pairs; an empty dict or list is a leaf of its own."""
    if isinstance(obj, dict) and obj:
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list) and obj:
        for i, item in enumerate(obj):
            yield from _flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _leaves(report) -> dict:
    """Each leaf as its JSON text, which carries its type: 1, 1.0 and true
    differ, and NaN equals NaN."""
    return {path: json.dumps(leaf) for path, leaf in _flatten(report)}


def cmd_diff(args) -> int:
    try:
        a = json.loads(Path(args.report_a).read_text())
        b = json.loads(Path(args.report_b).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"unreadable report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    fa, fb = _leaves(a), _leaves(b)
    changed = []
    for key in sorted(set(fa) | set(fb)):
        va, vb = fa.get(key, "<missing>"), fb.get(key, "<missing>")
        if va != vb:
            changed.append((key, va, vb))
    if not changed:
        print("reports identical")
        return EXIT_OK
    for key, va, vb in changed:
        print(f"{key}: {va} != {vb}")
    return EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdp-sim",
        description="Deterministic witness-network protocol simulator")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write outputs")
    p_run.add_argument("--config", required=True,
                       help="scenario file (YAML/JSON) or builtin:<name>")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="dotted-path config override (repeatable)")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate and normalize a config")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--set", action="append", metavar="PATH=VALUE")
    p_val.set_defaults(func=cmd_validate)

    p_scen = sub.add_parser("scenarios", help="list built-in scenarios")
    p_scen.add_argument("--emit", metavar="NAME",
                        help="print the named scenario's full config")
    p_scen.set_defaults(func=cmd_scenarios)

    p_diff = sub.add_parser("diff", help="structurally compare two reports")
    p_diff.add_argument("report_a")
    p_diff.add_argument("report_b")
    p_diff.set_defaults(func=cmd_diff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
