"""Record the expected events.jsonl sha256 of every workload for a seed range.

    python3 perfbench/record_digests.py FIRST LAST

Run from the root of a checkout. Runs one untraced repetition per workload and
seed through ``child.py`` and writes ``perfbench/digests.json``, which
``run.py`` checks every repetition against. A change that keeps the
simulator's behaviour must leave these digests unchanged; re-record only for
a change meant to alter the event log, and say so where it is reviewed.
"""

import json
import sys
from pathlib import Path

from run import HERE, run_child


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    path = HERE / "digests.json"
    digests = json.loads(path.read_text()) if path.is_file() else {}
    work = root / ".perfbench" / "work"
    for workload in WORKLOADS:
        for seed in range(first, last + 1):
            result, error = run_child(root, work, workload, seed, False, 600)
            if result is None or result["problems"]:
                print(f"{workload} seed {seed}: "
                      f"{error or result['problems']}", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = result["digests"]
            print(f"{workload} seed {seed}: recorded", flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
