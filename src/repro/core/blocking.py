"""Blocking schedule helpers for the incremental similarity search."""

from __future__ import annotations

from ..distsparse.blocked_summa import BlockSchedule
from .engine.stages import BlockTask
from .load_balance import LoadBalancingScheme, make_scheme
from .params import PastisParams


def make_schedule(n_sequences: int, params: PastisParams) -> BlockSchedule:
    """Build the output-matrix blocking from the run parameters.

    The blocking factors are clamped to the matrix dimension so tiny test
    datasets with large ``num_blocks`` still produce a valid schedule.
    """
    br, bc = params.blocking_factors()
    br = min(br, n_sequences)
    bc = min(bc, n_sequences)
    return BlockSchedule(n_rows=n_sequences, n_cols=n_sequences, br=br, bc=bc)


def make_block_tasks(
    n_sequences: int, params: PastisParams
) -> tuple[BlockSchedule, LoadBalancingScheme, list[BlockTask]]:
    """Blocking, load-balancing scheme, and the stage-graph task list of a run.

    One :class:`~repro.core.engine.stages.BlockTask` is created per block the
    scheme computes, in the scheme's block order; the stage loop runs them in
    that order.
    """
    schedule = make_schedule(n_sequences, params)
    scheme = make_scheme(params.load_balancing)
    tasks = [BlockTask(r, c) for r, c in scheme.blocks_to_compute(schedule)]
    return schedule, scheme, tasks
