"""Pins the dispute paths that no golden scenario reaches.

The 8 built-ins close every dispute by mediation or community review, so
panel selection, final arbitration, the no-panel fallback and the appeal
are gated only here. Each path is driven on a small world and compared, in
full, with ``dispute_paths.json``: the ``(tick, kind, actor, subject,
detail)`` of every event the path appends, the dispute's end state, and the
accounts the path touched.

Re-record with ``pytest tests/test_dispute_paths.py --update-goldens`` only
for a change that is meant to alter dispute behaviour.
"""

import json
from pathlib import Path

import pytest

from gdpsim import world as world_mod
from gdpsim.arbitration import DisputeStage, appeal, open_dispute
from gdpsim.primitives import SeededRng

from conftest import mini_world

PINS = Path(__file__).parent / "dispute_paths.json"


def _world():
    """14 witnesses, all scored as eligible arbitrators, so an appeal can
    seat a panel disjoint from the first."""
    world = mini_world(n_witness_pool=14)
    for pub in world.reputation_accounts:
        world.set_score(pub, 0.9)
    return world


def _open(world, conclusive):
    accused = world.active_devices()[0]
    kind = "commit_mismatch" if conclusive else "txn_created"
    ref = world.log.append(world.tick, kind, actor=accused.hex(),
                           subject=accused.hex())
    claim = {"category": "attestation_conflict", "accused": accused.hex(),
             "event_refs": [ref]}
    return open_dispute(world, [accused], claim)


def _progress_until(world, dispute, stage):
    """One ``_progress_disputes`` per tick until the dispute reaches stage."""
    for _ in range(8):
        if dispute.stage is stage:
            return
        world.tick += 1
        world_mod._progress_disputes(world)
    assert dispute.stage is stage


def _split_community(world, dispute, extra_guilty=0):
    """Alternate guilty/clear community votes so no side reaches 2/3; the
    first ``extra_guilty`` clear voters vote guilty instead."""
    voters = [p for p in world.active_devices() if p not in dispute.parties]
    for i, voter in enumerate(voters):
        guilty = i % 2 == 0 or i < 2 * extra_guilty
        world.actors[voter].community_vote = lambda w, d, _v=guilty: _v


def _accounts(world):
    return {pub.hex()[:16]: [acct.staked, acct.liquid, acct.offense_count,
                             world.reputation_accounts[pub].score]
            for pub, acct in world.stake_accounts.items()}


def _totals(world):
    return [world.treasury, world.bond_escrow, world.total_minted,
            world.total_deposited]


def _path_mediation_closes(world):
    dispute = _open(world, conclusive=False)
    _progress_until(world, dispute, DisputeStage.CLOSED)
    return dispute


def _to_panel_selection(world, extra_guilty=0):
    dispute = _open(world, conclusive=True)
    _split_community(world, dispute, extra_guilty)
    _progress_until(world, dispute, DisputeStage.PANEL_SELECTION)
    return dispute


def _path_panel_arbitration(world):
    dispute = _to_panel_selection(world)
    _progress_until(world, dispute, DisputeStage.FINAL_ARBITRATION)
    _progress_until(world, dispute, DisputeStage.CLOSED)
    return dispute


def _path_no_panel_fallback(world):
    # a guilty-leaning tally, so the fallback convicts on it
    dispute = _to_panel_selection(world, extra_guilty=1)
    for profile in list(world.devices.values())[4:]:
        profile.arbitrator = False
    _progress_until(world, dispute, DisputeStage.CLOSED)
    return dispute


def _path_appeal_upholds(world):
    dispute = _path_panel_arbitration(world)
    world.stake_accounts[dispute.parties[0]].liquid = 50.0
    world.tick += 1
    appeal(world, dispute, SeededRng(11))
    return dispute


def _path_appeal_flips(world):
    dispute = _path_panel_arbitration(world)
    world.stake_accounts[dispute.parties[0]].liquid = 50.0
    for actor in world.actors.values():
        actor.panel_vote = lambda w, d: False
    world.tick += 1
    appeal(world, dispute, SeededRng(12))
    return dispute


PATHS = {
    "mediation_closes": _path_mediation_closes,
    "panel_arbitration": _path_panel_arbitration,
    "no_panel_fallback": _path_no_panel_fallback,
    "appeal_upholds": _path_appeal_upholds,
    "appeal_flips": _path_appeal_flips,
}


def _record(name):
    world = _world()
    start = len(world.log)
    accounts_before = _accounts(world)
    dispute = PATHS[name](world)
    events = [[ev.tick, ev.kind, ev.actor, ev.subject, ev.detail]
              for ev in list(world.log)[start:]]
    accounts = _accounts(world)
    decision = dispute.decision
    return json.loads(json.dumps({
        "events": events,
        "dispute": {
            "stage": dispute.stage.value,
            "body": decision.deciding_body.value,
            "at_fault": [p.hex() for p in decision.at_fault],
            "panel": [p.hex() for p in dispute.panel],
            "appeal_used": dispute.appeal_used,
            "verdicts": [v.hex() for v in world.verdict_registry],
            "pending": [v.hex() for v in world.pending_verdicts],
        },
        "touched_accounts": {k: v for k, v in accounts.items()
                             if v != accounts_before[k]},
        "totals": _totals(world),
    }))


@pytest.fixture(scope="module")
def pinned(request):
    if request.config.getoption("--update-goldens"):
        PINS.write_text(json.dumps({name: _record(name) for name in PATHS},
                                   indent=1, sort_keys=True) + "\n")
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name", list(PATHS))
def test_dispute_path_matches_pin(pinned, name):
    got = _record(name)
    want = pinned[name]
    assert got["events"] == want["events"]
    assert got == want


def test_pins_cover_each_stage_and_outcome(pinned):
    bodies = {name: pin["dispute"]["body"] for name, pin in pinned.items()}
    assert bodies == {"mediation_closes": "Mediator",
                      "panel_arbitration": "Panel",
                      "no_panel_fallback": "Community",
                      "appeal_upholds": "AppealPanel",
                      "appeal_flips": "AppealPanel"}
    kinds = {name: [e[1] for e in pin["events"]] for name, pin in pinned.items()}
    assert "verdict" in kinds["mediation_closes"]
    assert "dispute_stage" not in kinds["mediation_closes"]
    assert pinned["no_panel_fallback"]["dispute"]["at_fault"]
    stages = [e[4].get("stage") for e in pinned["panel_arbitration"]["events"]
              if e[1] == "dispute_stage"]
    assert stages[-1] == "FinalArbitration"
    flips = [e[4]["flipped"] for name in ("appeal_upholds", "appeal_flips")
             for e in pinned[name]["events"] if e[1] == "appeal"]
    assert flips == [False, True]


def test_flipped_appeal_restores_twice(pinned):
    """A flip to "not at fault" restores the accused twice: once from the
    appeal's own loop and once from the appeal verdict's restore remedy."""
    events = pinned["appeal_flips"]["events"]
    accused = events[0][3]  # the cited commit_mismatch names the accused
    restores = [(e[3], e[4]["cause"].split(":")[0]) for e in events
                if e[1] == "incentive"
                and e[4]["incentive_kind"] == "ReputationRestore"]
    assert restores == [(accused, "appeal"), (accused, "dispute")]
