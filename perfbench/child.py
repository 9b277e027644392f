"""One benchmark repetition, run in a fresh process by ``run.py``.

Imports gdpsim from ``src/`` of the current directory, runs every
``(label, config)`` of the workload through ``build_world``, the ``step`` loop,
``derive_metrics`` and ``write_outputs``, checks the outputs and prints one
JSON object as its last line of standard output. Times are taken on the
program clock of ``hostspeed.Sampler`` and reported scaled to the nominal
host, with the unscaled totals under ``wall``. With ``--trace 1`` the tracer
wraps the program's callables first and the result carries its totals.
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path

import hostspeed


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_outputs(root, workload, seed, label, world, report) -> list:
    """Correctness gate for one simulated run; returns the problems found."""
    from gdpsim import incentives, metrics
    from workloads import EXPECTED_BREACH, golden_applies

    problems = []
    expected_safe = label not in EXPECTED_BREACH
    if report["safety_ok"] is not expected_safe:
        problems.append(f"safety_ok is {report['safety_ok']}, "
                        f"expected {expected_safe}")
    gap = incentives.conservation_gap(world)
    if gap > 1e-6:
        problems.append(f"conservation gap {gap}")
    mismatches = metrics.replay_matches_world(world)
    if mismatches:
        problems.append(f"{len(mismatches)} replay mismatches")
    if golden_applies(workload, seed):
        golden = root / "tests" / "golden" / f"{label}.report.json"
        if json.loads(golden.read_text()) != report:
            problems.append(f"report differs from {golden.relative_to(root)}")
    return problems


def run(workload: str, seed: int, trace: bool, work: Path) -> dict:
    root = Path.cwd()
    import gdpsim
    expected = (root / "src" / "gdpsim").resolve()
    if Path(gdpsim.__file__).resolve().parent != expected:
        raise SystemExit(f"gdpsim imported from {gdpsim.__file__}, "
                         f"not from {expected}")
    import cryptography
    from gdpsim import metrics
    from gdpsim import world as world_mod
    from gdpsim.arbitration import DisputeStage
    from tracer import Tracer
    from workloads import WORKLOADS

    sampler = hostspeed.Sampler()
    clock = sampler.clock
    tracer = None
    if trace:
        tracer = Tracer(clock)
        tracer.install()
    depth = {"world.mempool_depth.max": 0, "world.unpaneled_depth.max": 0,
             "arbitration.open_disputes.max": 0}
    out = {"setup_s": 0.0, "run_s": 0.0, "output_s": 0.0, "txns": 0,
           "ticks": [], "arrival": [], "growth_q2": [], "growth_q4": [],
           "digests": {}, "problems": {},
           "wall": {"setup_s": 0.0, "run_s": 0.0, "output_s": 0.0},
           "cryptography": cryptography.__version__}
    sections = []  # per label: program-clock spans, scaled once sampling ends
    sampler.start()
    for label, cfg in WORKLOADS[workload](seed):
        if tracer is not None:
            tracer.active = True
        t0 = clock()
        world = world_mod.build_world(cfg)
        t1 = clock()
        ticks = []
        for _ in range(cfg.duration_ticks):
            start = clock()
            world_mod.step(world)
            ticks.append((start, clock()))
            if tracer is not None:
                open_disputes = sum(1 for d in world.disputes.values()
                                    if d.stage is not DisputeStage.CLOSED)
                for key, value in (
                        ("world.mempool_depth.max", len(world.mempool)),
                        ("world.unpaneled_depth.max", len(world.unpaneled)),
                        ("arbitration.open_disputes.max", open_disputes)):
                    depth[key] = max(depth[key], value)
        t2 = clock()
        report = metrics.derive_metrics(world.log, cfg)
        out_dir = work / label
        metrics.write_outputs(world, report, out_dir)
        t3 = clock()
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mb"] = rss_kib / 1024
        if tracer is not None:
            tracer.active = False
        sections.append((cfg, (t0, t1), ticks, (t2, t3)))

        out["txns"] += report["transactions"]["submitted"]
        out["digests"][label] = sha256_file(out_dir / "events.jsonl")
        problems = check_outputs(root, workload, seed, label, world, report)
        if problems:
            out["problems"][label] = problems
        shutil.rmtree(out_dir)
        del world, report
    sampler.stop()
    for cfg, setup, spans, output in sections:
        ticks = [sampler.scaled(*span) for span in spans]
        out["setup_s"] += sampler.scaled(*setup)
        out["run_s"] += sum(ticks)
        out["output_s"] += sampler.scaled(*output)
        out["wall"]["setup_s"] += setup[1] - setup[0]
        out["wall"]["run_s"] += sum(b - a for a, b in spans)
        out["wall"]["output_s"] += output[1] - output[0]
        out["ticks"].extend(ticks)
        # arrival period: ticks 1..A, the loaded part of the run
        arrival = cfg.duration_ticks - cfg.drain_ticks
        out["arrival"].extend(ticks[:arrival])
        out["growth_q2"].extend(ticks[arrival // 4:arrival // 2])
        out["growth_q4"].extend(ticks[3 * arrival // 4:arrival])
    out["reference"] = {"passes": len(sampler.took),
                        "median_s": statistics.median(sampler.took)}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["depth"] = depth
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True,
                        help="scratch directory for write_outputs")
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, bool(args.trace), work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
