"""The two load-balancing schemes of §VI-B.

The overlap matrix is symmetric (``C[i,j]`` and ``C[j,i]`` describe the same
pairwise alignment), so half of the discovery and alignment work can be
avoided — but with blocked formation this must be done carefully or entire
process-grid portions idle.  The paper proposes two schemes:

**Triangularity-based** — only blocks whose intersection with the strictly
upper triangle is non-empty are computed.  Blocks are classified as

* *full*: entirely above the diagonal — every element is aligned;
* *partial*: straddling the diagonal — only the strictly-upper elements are
  aligned (the source of load imbalance: ranks owning the lower-triangle
  part of such a block have nothing to align);
* *avoidable*: entirely on/below the diagonal — neither computed nor aligned.

**Index-based** — every block is computed, and elements are pruned by the
parity rule (keep lower-triangle elements with equal index parity, upper-
triangle elements with opposite parity), which keeps exactly one of
``C[i,j]``/``C[j,i]`` and preserves the uniform nonzero distribution, hence
better balance at the cost of computing all blocks.

Both schemes must align every similar pair exactly once; the tests assert the
resulting similarity graphs are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..distsparse.blocked_summa import BlockSchedule
from ..sparse.coo import CooMatrix
from ..sparse.spops import prune_by_parity, triu


class BlockKind(Enum):
    """Classification of an output block by the triangularity-based scheme."""

    FULL = "full"
    PARTIAL = "partial"
    AVOIDABLE = "avoidable"


def classify_block(
    row_range: tuple[int, int], col_range: tuple[int, int]
) -> BlockKind:
    """Classify a block against the strictly upper triangle (col > row)."""
    rlo, rhi = row_range
    clo, chi = col_range
    # every element strictly upper:  min(col) > max(row)  <=>  clo > rhi - 1
    if clo >= rhi:
        return BlockKind.FULL
    # no element strictly upper:  max(col) <= min(row) + ... : chi - 1 <= rlo
    if chi - 1 <= rlo:
        return BlockKind.AVOIDABLE
    return BlockKind.PARTIAL


@dataclass
class LoadBalancingScheme:
    """Base class: which blocks to compute and which elements to align."""

    name: str = "base"

    def blocks_to_compute(self, schedule: BlockSchedule) -> list[tuple[int, int]]:
        """Blocks the Blocked SUMMA must compute."""
        raise NotImplementedError

    def prune(self, block: CooMatrix) -> CooMatrix:
        """Select the elements (global coordinates) that will be aligned."""
        raise NotImplementedError

    def block_classification(self, schedule: BlockSchedule) -> dict[tuple[int, int], BlockKind]:
        """Classification of every block (informational for both schemes)."""
        return {
            (r, c): classify_block(schedule.row_range(r), schedule.col_range(c))
            for r, c in schedule.all_blocks()
        }


@dataclass
class TriangularityScheme(LoadBalancingScheme):
    """Compute only blocks intersecting the strictly upper triangle (§VI-B)."""

    name: str = "triangularity"

    def blocks_to_compute(self, schedule: BlockSchedule) -> list[tuple[int, int]]:
        blocks = []
        for r, c in schedule.all_blocks():
            kind = classify_block(schedule.row_range(r), schedule.col_range(c))
            if kind is not BlockKind.AVOIDABLE:
                blocks.append((r, c))
        return blocks

    def prune(self, block: CooMatrix) -> CooMatrix:
        # keep only the strictly upper triangular elements (each unordered
        # pair exactly once, no self-pairs)
        return triu(block, k=1)

    def sparse_savings_fraction(self, schedule: BlockSchedule) -> float:
        """Fraction of blocks avoided entirely (the scheme's sparse saving)."""
        total = schedule.num_blocks
        computed = len(self.blocks_to_compute(schedule))
        return 1.0 - computed / total if total else 0.0


@dataclass
class IndexScheme(LoadBalancingScheme):
    """Compute all blocks; prune elements by the index-parity rule (§VI-B)."""

    name: str = "index"

    def blocks_to_compute(self, schedule: BlockSchedule) -> list[tuple[int, int]]:
        return schedule.all_blocks()

    def prune(self, block: CooMatrix) -> CooMatrix:
        return prune_by_parity(block, keep_diagonal=False)


def make_scheme(name: str) -> LoadBalancingScheme:
    """Factory: ``"index"`` or ``"triangularity"``."""
    if name == "index":
        return IndexScheme()
    if name == "triangularity":
        return TriangularityScheme()
    raise ValueError(f"unknown load balancing scheme {name!r}")
