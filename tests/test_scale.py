"""Scale gate: a tick's phases do work that grows with the tick's work, not
with the population.

The criterion-2 population runs at 200 and at 800 colluders, the same
arrival rate, 60 ticks and seed 0. Every phase that ``world.step`` calls
is wrapped, and ``sys.settrace`` counts the trace events inside it: each
frame's ``call``, its ``line`` events and its ``return``. Counts differ
across Python versions, so the gate compares the ratio of the two runs'
counts, never a count. Timing would not do: on a shared host single runs
spread by up to 2x. The ratios below were measured on Python 3.11 only.

The tracer sees Python frames and lines, not work done inside a C builtin:
``list.copy()``, ``sorted``, ``sum`` over a list or a membership test on a
list emit no event per element, so an O(N) step of that kind goes unseen.
A scan written as a Python loop or a generator is what the gate catches.
"""

import ast
import inspect
import sys

from gdpsim import world as world_mod

from conftest import population_cfg

SMALL, LARGE = 200, 800
TICKS, DRAIN = 60, 20

# The largest ratio a phase may show at 4x the population. The busiest
# flat phase, ``_arrivals``, reads 1.10; a one-line generator scan of
# ``world.devices`` added to it reads 1.225.
CEILING = 1.2
MARGIN = 1.05

# Phases that are O(N) today, each with the ratio it shows here. A phase
# joins this list only with a reason; a change that makes one flat in N
# takes it off.
O_N_PHASES = {
    # each sample groups every reputation account by role, one by one
    "_sample_metrics": 3.28,
    # a community review weighs every active voter, one by one
    "_progress_disputes": 2.81,
    # each round copies the active set, less its proposer, into its list of
    # eligible validators, and re-sums the active stakes after a flip
    "_consensus_round": 1.67,
}


def step_phases() -> list:
    """(module, name) of each phase ``world.step`` calls with the world."""
    phases = []
    for node in ast.walk(ast.parse(inspect.getsource(world_mod.step))):
        if not (isinstance(node, ast.Call) and node.args
                and getattr(node.args[0], "id", None) == "world"):
            continue
        if isinstance(node.func, ast.Name):
            phases.append((world_mod, node.func.id))
        else:
            phases.append((getattr(world_mod, node.func.value.id),
                           node.func.attr))
    return phases


def phase_work(colluders: int) -> dict:
    """Phase name -> trace events it saw in one run."""
    cfg = population_cfg(TICKS, DRAIN)
    cfg.seed = 0
    cfg.adversaries[0].count = colluders
    world = world_mod.build_world(cfg)
    work = {}

    def counting(name, real):
        def counted(world):
            events = 0

            def tracer(frame, event, arg):
                nonlocal events
                events += 1
                return tracer

            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                real(world)
            finally:
                sys.settrace(previous)
            work[name] = work.get(name, 0) + events
        return counted

    wrapped = [(module, name, getattr(module, name))
               for module, name in step_phases()]
    try:
        for module, name, real in wrapped:
            setattr(module, name, counting(name, real))
        for _ in range(TICKS):
            world_mod.step(world)
    finally:
        for module, name, real in wrapped:
            setattr(module, name, real)
    return work


def test_phase_work_stays_flat_in_the_population():
    assert {name for _, name in step_phases()} >= {
        "_sync_lagging", "_arrivals", "_consensus_round", "_sample_metrics"}
    small, large = phase_work(SMALL), phase_work(LARGE)
    ratios = {name: large[name] / max(small[name], 1) for name in small}
    ceilings = {name: MARGIN * O_N_PHASES[name] if name in O_N_PHASES
                else CEILING for name in ratios}
    table = "\n".join(
        f"{name:<26}{small[name]:>10}{large[name]:>10}"
        f"{ratios[name]:>8.2f}{ceilings[name]:>8.2f}"
        for name in ratios)
    over = [name for name in ratios if ratios[name] > ceilings[name]]
    assert not over, (
        f"work at {LARGE} / {SMALL} colluders over its ceiling in {over}:\n"
        f"{'phase':<26}{SMALL:>10}{LARGE:>10}{'ratio':>8}{'ceiling':>8}\n"
        + table)
    assert set(O_N_PHASES) <= set(ratios)
