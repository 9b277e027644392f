"""Outside-in tracer: wraps public gdpsim callables and keeps span totals.

Every wrapped call is a span. Its self time is its duration minus the
durations of the wrapped calls made inside it. Totals stay in memory and the
caller reads them once the repetition ends; nothing under ``src/`` changes.

Names imported into other modules (``from .primitives import sign``) are
separate module attributes, so each target is replaced in every gdpsim module
that holds the same function object. Methods are replaced on their class.
"""

import functools
import importlib
import sys
import time

# The 13 phases ``world.step`` calls, in call order.
PHASES = (
    "world._environment",
    "incentives.release_due_bans",
    "anomaly.release_due_quarantines",
    "world._sync_lagging",
    "world._arrivals",
    "world._aggregate_due",
    "world._land_pending",
    "world._consensus_round",
    "world._per_tick_streams",
    "world._revalidations",
    "world._progress_disputes",
    "world._incentive_upkeep",
    "world._sample_metrics",
)

# The calls the benchmark itself makes into the program; step's self time is
# the part of a tick spent outside its phases.
ROOTS = ("world.build_world", "world.step")

# Per-layer targets reported as ``<target>.calls`` and ``<target>.self_s``.
LAYERS = (
    "anomaly.StreamBaseline.push",
    "anomaly.observe",
    "anomaly.detect_changepoint",
    "anomaly.investigate",
    "anomaly.quarantine",
    "events.EventLog.append",
    "events.EventLog.slice_around",
    "events.write_events_jsonl",
    "events.write_transactions_csv",
    "events.write_alerts_csv",
    "events.write_incentives_csv",
    "events.write_disputes_csv",
    "events.write_inspections_csv",
    "events.write_ledger_csv",
    "transmission.open_panel",
    "transmission.witness_commit",
    "transmission.witness_reveal",
    "transmission.aggregate_attestations",
    "transmission.reescalate_disputed",
    "transmission.evaluate_witnesses",
    "consensus.propose_block",
    "consensus.validate_proposal",
    "consensus.cast_vote",
    "consensus.commit_block",
    "consensus.synchronize",
    "consensus.verify_batch",
    "primitives.sign",
    "primitives.verify",
    "primitives.SeededRng.derive",
    "onboarding.submit_registration",
    "onboarding.verify_challenge_response",
    "onboarding.verify_mfa",
    "onboarding.finalize_device",
    "onboarding.revalidate_device",
    "incentives.apply_longevity_bonus",
    "incentives.apply_penalty",
    "arbitration.open_dispute",
    "arbitration.mediate",
    "arbitration.community_review",
    "arbitration.select_panel",
    "arbitration.arbitrate",
    "stochastic.should_inspect",
    "stochastic.deep_inspect_transaction",
    "stochastic.challenge_proposer",
    "stochastic.verify_sync_integrity",
    "metrics.derive_metrics",
    "metrics.write_outputs",
)


def _investigate(counters, args, kwargs, result, exc):
    if exc is None and result.violations:
        counters["with_violations"] += 1


def _slice_around(counters, args, kwargs, result, exc):
    if exc is None:
        counters["returned"] += len(result)


def _open_panel(counters, args, kwargs, result, exc):
    if type(exc).__name__ == "InsufficientWitnesses":
        counters["failed"] += 1


def _commit_block(counters, args, kwargs, result, exc):
    if exc is None and result is None:
        counters["rejected"] += 1


def _verify_batch(counters, args, kwargs, result, exc):
    batch = args[3] if len(args) > 3 else kwargs["batch"]
    counters["blocks"] += len(batch)


def _should_inspect(counters, args, kwargs, result, exc):
    if result is True:
        counters["hits"] += 1


# Counters kept beside the span totals: (target, counter names, hook).
COUNTERS = (
    ("anomaly.investigate", ("with_violations",), _investigate),
    ("events.EventLog.slice_around", ("returned",), _slice_around),
    ("transmission.open_panel", ("failed",), _open_panel),
    ("consensus.commit_block", ("rejected",), _commit_block),
    ("consensus.verify_batch", ("blocks",), _verify_batch),
    ("stochastic.should_inspect", ("hits",), _should_inspect),
)


class Tracer:
    """Span totals for every target; ``active`` gates recording."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.stats = {}      # target -> [calls, total_s, self_s]
        self.counters = {}   # target -> {counter: value}
        self.absent = []     # targets missing from the program
        self.aliases = {}    # target -> module attributes replaced
        self._stack = []     # running child time of each open span

    def install(self) -> None:
        hooks = {target: (names, hook) for target, names, hook in COUNTERS}
        for target in ROOTS + PHASES + LAYERS:
            names, hook = hooks.get(target, ((), None))
            self._install_one(target, names, hook)

    def _install_one(self, target, counter_names, hook) -> None:
        module_name, *path = target.split(".")
        try:
            owner = importlib.import_module(f"gdpsim.{module_name}")
        except ImportError:
            self.absent.append(target)
            return
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None) if owner is not None else None
        if not callable(original):
            self.absent.append(target)
            return
        self.stats[target] = [0, 0.0, 0.0]
        counters = self.counters[target] = dict.fromkeys(counter_names, 0)
        wrapper = self._wrap(original, self.stats[target], counters, hook)
        if isinstance(owner, type):
            setattr(owner, path[-1], wrapper)
            self.aliases[target] = [f"{owner.__module__}.{owner.__name__}"]
            return
        replaced = []
        for name, module in list(sys.modules.items()):
            if name != "gdpsim" and not name.startswith("gdpsim."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append(f"{name}.{attr}")
        self.aliases[target] = sorted(replaced)

    def _wrap(self, fn, stats, counters, hook):
        stack = self._stack
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = exc = None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                duration = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - child
                if stack:
                    stack[-1] += duration
                if hook is not None:
                    hook(counters, args, kwargs, result, exc)

        return wrapper

    def snapshot(self) -> dict:
        return {
            "stats": {t: list(s) for t, s in self.stats.items()},
            "counters": {t: dict(c) for t, c in self.counters.items()},
            "absent": list(self.absent),
            "aliases": self.aliases,
        }
