"""Host-speed reference: a fixed loop timed while the program runs.

The benchmark host is a shared VM whose cores run between 1.0x and 2.0x of
their fastest pace as other tenants load them. The slowdown is continuous
(no gaps in wall time, CPU time equal to wall time) and changes within tens
of milliseconds, so repetitions of one run see different speeds and no
statistic over wall times removes it. A fixed workload slows with the
program. ``Sampler`` times one pass of such a loop (run twice, the second,
warm run timed) from a timer signal every ``INTERVAL_S`` of wall time, inside
whatever the program is doing, and right before and after every full
garbage collection, and keeps a program clock that stops while the loop
runs. A section of the program timed on that clock is reported as
``scaled(start, end)``: each stretch between two passes is weighted by
``NOMINAL_S / (their mean time)``, which gives the seconds the section would
take on a host where one pass takes ``NOMINAL_S``.

The loop does no gdpsim work, so a change to the program cannot move it. Its
mix follows the simulator's: Python dict, list and string work, sha256,
JSON encoding and an Ed25519 sign and verify.
"""

import bisect
import gc
import hashlib
import json
import signal
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# Median time of one warm pass inside a repetition on the 2-vCPU Xeon VM the
# bounds were set on (Python 3.11.7, cryptography 48.0.0).
NOMINAL_S = 0.6e-3
INTERVAL_S = 0.015

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = b"gdpsim host-speed reference" * 4


def _work() -> int:
    table = {}
    rows = []
    acc = 0
    for i in range(300):
        key = f"dev-{i % 97:03d}"
        entry = table.get(key)
        if entry is None:
            entry = table[key] = {"n": 0, "sum": 0.0, "seen": []}
        entry["n"] += 1
        entry["sum"] += i * 0.5
        entry["seen"].append(i)
        rows.append((key, i, entry["n"]))
        if i % 40 == 0:
            digest = hashlib.sha256(key.encode() + i.to_bytes(4, "big"))
            acc ^= int.from_bytes(digest.digest()[:4], "big")
    rows.sort(key=lambda row: (row[2], row[0]))
    encoded = json.dumps([{"k": k, "i": i, "n": n} for k, i, n in rows[:75]])
    signature = _KEY.sign(_MESSAGE)
    _PUBLIC.verify(signature, _MESSAGE)
    return acc + len(encoded)


def warm_pass() -> float:
    """Run the loop twice; the wall time of the second, warm run."""
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Sampler:
    """Reference passes on a timer signal, and a program clock without them."""

    def __init__(self):
        self.at = []         # program-clock time of each pass
        self.took = []       # wall time of each pass
        self._paused = 0.0   # wall time spent in passes so far
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        # the pass frees all it allocates; with the collector off it leaves
        # the program's collection schedule where the program put it
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        took = warm_pass()
        if collecting:
            gc.enable()
        self.at.append(start - self._paused)
        self.took.append(took)
        self._paused += time.perf_counter() - start
        self._busy = False

    def _collection(self, phase, info) -> None:
        # a collection runs in C, where no signal handler can interrupt it;
        # passes right before and after it time the pace it ran at
        if info["generation"] == 2:
            self._tick(None, None)

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        gc.callbacks.append(self._collection)

    def stop(self) -> None:
        gc.callbacks.remove(self._collection)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def scaled(self, start: float, end: float) -> float:
        """Program-clock span [start, end] in nominal-host seconds."""
        at, took = self.at, self.took
        total = 0.0
        k = max(0, bisect.bisect_right(at, start) - 1)
        while start < end:
            stop = min(end, at[k + 1]) if k + 1 < len(at) else end
            pace = (took[k] + took[k + 1]) / 2 if k + 1 < len(at) else took[k]
            total += (stop - start) * NOMINAL_S / pace
            start = stop
            k += 1
        return total


if __name__ == "__main__":
    times = sorted(warm_pass() for _ in range(2000))
    print(f"warm pass: median {statistics.median(times) * 1e3:.3f} ms, "
          f"fastest {times[0] * 1e3:.3f} ms over {len(times)} passes")
