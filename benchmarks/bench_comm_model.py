"""Ablation: communication cost of blocked vs. plain 2D Sparse SUMMA (§VI-A).

The paper gives closed-form per-rank broadcast costs

* plain:    ``2 alpha sqrt(p) log sqrt(p) + 2 beta s sqrt(p) log sqrt(p)``
* blocked:  ``2 alpha (br bc) sqrt(p) log sqrt(p) + beta s (br+bc) sqrt(p) log sqrt(p)``

i.e. the latency term grows with the *number of blocks* while the bandwidth
term grows only with ``br + bc``.  This ablation (1) evaluates the formulas
across blocking factors, and (2) cross-checks them against the communication
time actually charged by the simulated collectives when running the blocked
SUMMA, confirming the bandwidth-term scaling and the memory/communication
trade-off that motivates blocking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distsparse.blocked_summa import BlockedSpGemm, BlockSchedule
from repro.distsparse.stripe import Stripe
from repro.hardware.topology import SUMMIT_NETWORK
from repro.io.tables import format_table
from repro.mpi.communicator import SimCommunicator
from repro.perfmodel.analytic import blocked_summa_communication_seconds, summa_communication_seconds
from repro.sparse.coo import CooMatrix
from repro.sparse.semiring import OverlapSemiring

from _results import save_results

BLOCKINGS = [(1, 1), (2, 2), (4, 4), (8, 8)]


def run():
    # ---- closed-form formulas at paper-like scale --------------------------------
    p, local_bytes = 3364, 48.8e9 * 20 / 3364
    formula_rows = []
    for br, bc in BLOCKINGS + [(20, 20)]:
        cost = blocked_summa_communication_seconds(p, local_bytes, br, bc, SUMMIT_NETWORK)
        formula_rows.append([f"{br}x{bc}", br * bc, cost])
    plain = summa_communication_seconds(p, local_bytes, SUMMIT_NETWORK)
    print("\n§VI-A — SUMMA broadcast cost model at 3364 nodes (seconds per rank)")
    print(format_table(["blocking", "blocks", "modelled comm s"], formula_rows, precision=2))
    print(f"plain (unblocked) SUMMA: {plain:.2f} s")

    # ---- simulated collectives on a real (small) blocked SUMMA --------------------
    rng = np.random.default_rng(0)
    n, k, nnz = 48, 400, 900
    a = CooMatrix(
        (n, k), rng.integers(0, n, nnz), rng.integers(0, k, nnz),
        rng.integers(0, 60, nnz).astype(np.int32),
    ).deduplicate()
    measured_rows = []
    measured = []
    for br, bc in BLOCKINGS:
        comm = SimCommunicator(4)
        schedule = BlockSchedule(n, n, br, bc)
        engine = BlockedSpGemm(
            Stripe.of(a, comm),
            Stripe.of(a.transpose(), comm).cut_columns(schedule.col_cuts()),
            OverlapSemiring(),
            schedule,
        )
        peak_block_bytes = max(block.matrix.memory_bytes() for block in engine.iter_blocks())
        comm_seconds = comm.ledger.component_time("comm")
        measured.append(
            {
                "blocking": f"{br}x{bc}",
                "blocks": br * bc,
                "simulated_comm_s": comm_seconds,
                "peak_block_bytes": peak_block_bytes,
                "model": engine.broadcast_volume_model(),
            }
        )
        measured_rows.append([f"{br}x{bc}", br * bc, comm_seconds, peak_block_bytes])
    print("\nSimulated collectives (4 virtual ranks, synthetic matrix): comm time vs peak block memory")
    print(
        format_table(
            ["blocking", "blocks", "simulated comm s", "peak block bytes"],
            measured_rows,
            precision=6,
        )
    )
    save_results(
        "comm_model_ablation",
        {"formula": formula_rows, "plain": plain, "measured": measured},
    )
    return formula_rows, plain, measured


def test_comm_model_ablation(benchmark):
    formula_rows, plain, measured = benchmark.pedantic(run, rounds=1, iterations=1)
    # 1x1 blocked == plain SUMMA cost
    assert formula_rows[0][2] == pytest.approx(plain, rel=1e-9)
    # communication cost increases with the number of blocks ...
    costs = [row[2] for row in formula_rows]
    assert all(costs[i] <= costs[i + 1] for i in range(len(costs) - 1))
    # ... but sub-linearly: 64x more blocks costs far less than 64x more time
    assert costs[3] / costs[0] < 10
    # the simulated collectives show the same monotone trade-off:
    sim = [m["simulated_comm_s"] for m in measured]
    mem = [m["peak_block_bytes"] for m in measured]
    assert all(sim[i] <= sim[i + 1] * 1.001 for i in range(len(sim) - 1))
    assert mem[-1] < mem[0]
