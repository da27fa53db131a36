"""Blocking schedule helpers for the incremental similarity search."""

from __future__ import annotations

from ..distsparse.blocked_summa import BlockSchedule
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

