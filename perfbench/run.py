"""gdpsim benchmark: end-to-end host-time metrics, or per-layer trace metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Each repetition runs ``child.py`` in a fresh process, one at a time, until
``--seconds`` would be exceeded (at least ``MIN_REPS`` repetitions). With
``--trace 0`` every repetition is untraced and the end-to-end metrics are
reported; with ``--trace 1`` traced and untraced repetitions alternate and the
per-layer metrics are reported. Host times are scaled to a nominal host by
``hostspeed.py``. Metric names and units come from ``BENCHMARK.json``. The
last line of standard output is the result object; the full record, machine
included, goes to ``.perfbench/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
# every run must exit within 180 s, whatever --seconds says
HARD_LIMIT_S = 165.0


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def machine(root: Path) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_commit": git_commit(root), "loadavg_start": os.getloadavg()}


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_child(root: Path, work: Path, workload: str, seed: int, traced: bool,
              timeout: float):
    """One repetition; returns (result or None, error text)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--work", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "repetition printed no result"


def end_to_end_values(reps: list) -> dict:
    med = statistics.median

    def per_tick(key):
        # every repetition of a seed runs the same ticks, so the median over
        # repetitions of each tick leaves its own cost and drops host noise
        return [med(times) for times in zip(*(r[key] for r in reps))]

    ticks = per_tick("ticks")
    arrival = per_tick("arrival")
    q2 = per_tick("growth_q2")
    q4 = per_tick("growth_q4")
    return {
        "setup_s": med(r["setup_s"] for r in reps),
        "run_s": med(r["run_s"] for r in reps),
        "output_s": med(r["output_s"] for r in reps),
        "txns_per_s": med(r["txns"] / r["run_s"] for r in reps),
        "tick_p50_ms": med(ticks) * 1e3,
        "tick_p99_ms": percentile(arrival, 99) * 1e3,
        "tick_growth": med(q4) / med(q2),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }


def per_layer_values(traced: list, untraced: list) -> dict:
    from tracer import LAYERS, PHASES

    med = statistics.median

    def stat(target, index):
        return med(r["trace"]["stats"].get(target, [0, 0.0, 0.0])[index]
                   for r in traced)

    def counter(target, name):
        return med(r["trace"]["counters"].get(target, {}).get(name, 0)
                   for r in traced)

    values = {}
    for target in LAYERS:
        values[f"{target}.calls"] = stat(target, 0)
        values[f"{target}.self_s"] = stat(target, 2)
    for target in PHASES:
        values[f"world.{target.rsplit('.', 1)[1]}.total_s"] = stat(target, 1)
    values["world.step.self_s"] = stat("world.step", 2)

    investigations = stat("anomaly.investigate", 0)
    values["anomaly.investigate.violation_ratio"] = (
        counter("anomaly.investigate", "with_violations") / investigations
        if investigations else 0.0)
    slices = stat("events.EventLog.slice_around", 0)
    values["events.EventLog.slice_around.returned_per_call"] = (
        counter("events.EventLog.slice_around", "returned") / slices
        if slices else 0.0)
    values["transmission.open_panel.failed"] = counter(
        "transmission.open_panel", "failed")
    values["consensus.commit_block.rejected"] = counter(
        "consensus.commit_block", "rejected")
    values["consensus.verify_batch.blocks"] = counter(
        "consensus.verify_batch", "blocks")
    values["stochastic.should_inspect.hits"] = counter(
        "stochastic.should_inspect", "hits")
    for key in ("world.mempool_depth.max", "world.unpaneled_depth.max",
                "arbitration.open_disputes.max"):
        values[key] = med(r["depth"][key] for r in traced)

    traced_run = med(r["run_s"] for r in traced)
    untraced_run = med(r["run_s"] for r in untraced)
    values["trace.traced_run_s"] = traced_run
    values["trace.untraced_run_s"] = untraced_run
    values["trace.overhead_s"] = traced_run - untraced_run
    values["trace.absent_targets"] = max(len(r["trace"]["absent"])
                                         for r in traced)
    return values


def judge(reps: list, labels: list, stored: dict) -> tuple:
    """Count failed operations; one operation is one simulated run (label)
    of one repetition. Returns (failed, problem lines)."""
    failed = 0
    lines = []
    reference = dict(stored)
    for rep in reps:
        if rep["result"] is None:
            continue
        for label, sha in rep["result"]["digests"].items():
            reference.setdefault(label, sha)
    first_calls = None
    for i, rep in enumerate(reps):
        result = rep["result"]
        if result is None:
            failed += len(labels)
            lines.append(f"rep {i}: {rep['error']}")
            continue
        bad = set(result["problems"])
        for label, problems in result["problems"].items():
            lines.append(f"rep {i} {label}: {'; '.join(problems)}")
        for label in labels:
            sha = result["digests"].get(label)
            if sha != reference.get(label):
                bad.add(label)
                lines.append(f"rep {i} {label}: events.jsonl sha256 {sha} "
                             f"!= expected {reference.get(label)}")
        if "trace" in result:
            calls = {t: s[0] for t, s in result["trace"]["stats"].items()}
            if first_calls is None:
                first_calls = calls
            elif calls != first_calls:
                bad.update(labels)
                lines.append(f"rep {i}: traced call counts differ from the "
                             "first traced repetition")
        failed += len(bad)
    return failed, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gdpsim" / "__init__.py").is_file():
        print(f"error: no gdpsim sources under {root / 'src'}; run from the "
              "root of a gdpsim checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    labels = [label for label, _ in WORKLOADS[args.workload](args.seed)]
    digests = json.loads((HERE / "digests.json").read_text())
    stored = digests.get(args.workload, {}).get(str(args.seed), {})

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "machine": machine(root), "reps": []}
    state = root / ".perfbench"
    work = state / "work"
    start = time.monotonic()
    durations = []
    reps = record["reps"]
    try:
        while True:
            elapsed = time.monotonic() - start
            if len(reps) >= MIN_REPS and elapsed + statistics.median(
                    durations) > min(args.seconds, HARD_LIMIT_S):
                break
            traced = bool(args.trace) and len(reps) % 2 == 0
            t0 = time.monotonic()
            result, error = run_child(root, work, args.workload, args.seed,
                                      traced, max(1.0, HARD_LIMIT_S - elapsed))
            durations.append(time.monotonic() - t0)
            reps.append({"traced": traced, "result": result, "error": error})
            if result is None:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["machine"]["loadavg_end"] = os.getloadavg()
    record["machine"]["cryptography"] = next(
        (r["result"]["cryptography"] for r in reps if r["result"]), "unknown")

    failed, problems = judge(reps, labels, stored)
    good = [r for r in reps if r["result"] is not None]
    untraced = [r["result"] for r in good if not r["traced"]]
    traced = [r["result"] for r in good if r["traced"]]
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    values = (per_layer_values(traced, untraced) if args.trace
              else end_to_end_values(untraced))
    names = {m["name"] for m in declared}
    if set(values) != names:
        print(f"error: metrics computed {sorted(set(values) - names)} are not "
              f"declared, declared {sorted(names - set(values))} are not "
              "computed", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record["metrics"] = metrics
    # unscaled program-clock seconds and the reference pace, for comparison
    record["wall"] = {key: statistics.median(r["wall"][key] for r in untraced)
                      for key in ("setup_s", "run_s", "output_s")}
    record["reference_median_s"] = statistics.median(
        r["reference"]["median_s"] for r in untraced)
    record["problems"] = problems
    state.mkdir(exist_ok=True)
    out_file = state / (f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} "
          f"cryptography={m['cryptography']} commit={m['git_commit']} "
          f"loadavg {m['loadavg_start'][0]:.2f} -> {m['loadavg_end'][0]:.2f}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} (traced {len(traced)}, untraced "
          f"{len(untraced)}) record={out_file.relative_to(root)}")
    w = record["wall"]
    print(f"unscaled program time: setup {w['setup_s']:.4f} s, run "
          f"{w['run_s']:.4f} s, output {w['output_s']:.4f} s; reference pass "
          f"{record['reference_median_s'] * 1e3:.3f} ms (nominal "
          f"{hostspeed.NOMINAL_S * 1e3:.3f} ms)")
    if args.trace:
        for target in traced[0]["trace"]["absent"]:
            print(f"absent trace target: {target}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    attempted = len(reps) * len(labels)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
