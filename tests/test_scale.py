"""Scale gates: a tick's phases do work that grows with the tick's work, not
with the population or with the run's history.

Every phase that ``world.step`` calls is wrapped, and ``sys.settrace`` counts
the trace events inside it: each frame's ``call``, its ``line`` events and
its ``return``. Counts differ across Python versions, so each gate compares
the ratio of two counts, never a count. Timing would not do: on a shared host
single runs spread by up to 2x. The ratios below were measured on Python 3.11
only.

- Population: the criterion-2 population runs at 200 and at 800 colluders,
  the same arrival rate, 60 ticks and seed 0.
- History: the criterion-2 population as criterion 2 runs it (700
  colluders, its scenario's seed) is counted per tick over its first T and
  its first 2T ticks after the 100-sample stream windows have filled.

The tracer sees Python frames and lines, not work done inside a C builtin:
``list.copy()``, ``sorted``, ``sum`` over a list or a membership test on a
list emit no event per element, so an O(N) step of that kind goes unseen.
A scan written as a Python loop or a generator is what the gates catch.
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


def population(colluders: int, ticks: int, drain: int):
    cfg = population_cfg(ticks, drain)
    cfg.seed = 0
    cfg.adversaries[0].count = colluders
    return cfg


def phase_work(cfg, ticks: int, skip: int = 0) -> dict:
    """Phase name -> the trace events it saw in each of ``ticks`` steps of a
    world built from ``cfg``, after ``skip`` steps that are not counted."""
    world = world_mod.build_world(cfg)
    for _ in range(skip):
        world_mod.step(world)
    work = {}
    at = 0

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
            work.setdefault(name, [0] * ticks)[at] += events
        return counted

    wrapped = [(module, name, getattr(module, name))
               for module, name in step_phases()]
    try:
        for module, name, real in wrapped:
            setattr(module, name, counting(name, real))
        for at in range(ticks):
            world_mod.step(world)
    finally:
        for module, name, real in wrapped:
            setattr(module, name, real)
    return work


def _table(columns: tuple, ratios: dict, ceilings: dict, counts) -> str:
    return "\n".join(
        [f"{'phase':<26}" + "".join(f"{c:>10}" for c in columns)
         + f"{'ratio':>8}{'ceiling':>8}"]
        + [f"{name:<26}" + "".join(f"{c:>10}" for c in counts(name))
           + f"{ratios[name]:>8.2f}{ceilings[name]:>8.2f}"
           for name in ratios])


def test_phase_work_stays_flat_in_the_population():
    assert {name for _, name in step_phases()} >= {
        "_sync_lagging", "_arrivals", "_consensus_round", "_sample_metrics"}
    small, large = ({name: sum(counts) for name, counts in
                     phase_work(population(colluders, TICKS, DRAIN),
                                TICKS).items()}
                    for colluders in (SMALL, LARGE))
    ratios = {name: large[name] / max(small[name], 1) for name in small}
    ceilings = {name: MARGIN * O_N_PHASES[name] if name in O_N_PHASES
                else CEILING for name in ratios}
    over = [name for name in ratios if ratios[name] > ceilings[name]]
    assert not over, (
        f"work at {LARGE} / {SMALL} colluders over its ceiling in {over}:\n"
        + _table((SMALL, LARGE), ratios, ceilings,
                 lambda name: (small[name], large[name])))
    assert set(O_N_PHASES) <= set(ratios)


# The history gate counts from tick WARM, once every 100-sample stream window
# has filled (they fill near tick 100, which would read as growth), over T
# and 2T ticks. T is a whole number of every periodic phase's period
# (metrics are sampled every 50 ticks, incentive epochs close every 100), so
# such a phase weighs the same per tick in both spans.
WARM, T = 110, 100

# Phases whose work per tick grows with history today, each with the ratio it
# shows here; as with O_N_PHASES, a phase joins only with a reason, and a
# change that makes one flat takes it off.
HISTORY_PHASES = {
    # a device released from a ban re-verifies every block it missed within
    # one tick: at tick 255 one catches up 72 blocks, against ~3 trace
    # events per tick in every other tick
    "_sync_lagging": 55.50,
}


def test_phase_work_per_tick_stays_flat_in_history():
    """The run of T ticks is the first T counted ticks of the run of 2T: a
    seeded run is the same up to any tick however long it then goes on, so
    one run of 2T serves as both. A phase whose work per tick grows linearly
    with the log reads (WARM + T) / (WARM + T / 2) = 1.31 here."""
    work = phase_work(population_cfg(WARM + 2 * T + DRAIN, DRAIN), 2 * T,
                      skip=WARM)
    ratios = {name: sum(counts) / (2 * max(sum(counts[:T]), 1))
              for name, counts in work.items()}
    ceilings = {name: MARGIN * HISTORY_PHASES[name]
                if name in HISTORY_PHASES else CEILING for name in ratios}
    over = [name for name in ratios if ratios[name] > ceilings[name]]
    assert not over, (
        f"work per tick over {2 * T} / {T} ticks over its ceiling in "
        f"{over}:\n"
        + _table((T, 2 * T), ratios, ceilings,
                 lambda name: (sum(work[name][:T]) // T,
                               sum(work[name]) // (2 * T))))
    assert set(HISTORY_PHASES) <= set(ratios)
