"""Shared helper: drive one full consensus round in a hand-built world."""

from gdpsim import consensus


def grow_chain_with_verdict(world):
    """Propose and commit one block (which sweeps in pending verdicts)."""
    proposer = consensus.current_proposer(world)
    proposal = consensus.propose_block(world, proposer)
    votes = [consensus.validate_proposal(world, n, proposal)
             for n in world.active_devices() if n != proposer]
    total = sum(v.weight for v in votes)
    block = consensus.commit_block(world, proposal, votes, total)
    assert block is not None
    return block
