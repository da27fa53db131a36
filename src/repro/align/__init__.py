"""Alignment substrate: Smith–Waterman kernels and the ADEPT-like batch driver.

PASTIS deliberately separates distributed-memory parallelism (sparse
matrices, handled by :mod:`repro.distsparse`) from on-node alignment
parallelism, which is delegated to node-level libraries (SeqAn on CPUs, ADEPT
on GPUs).  This subpackage plays the role of those libraries:

* :mod:`repro.align.substitution` — BLOSUM62 and scoring schemes;
* :mod:`repro.align.smith_waterman` — reference and anti-diagonal vectorized
  single-pair kernels (the "SeqAn" role);
* :mod:`repro.align.batch` — the batched wavefront kernel (the "ADEPT kernel"
  role), returning score, end/begin coordinates, matches and alignment length;
* :mod:`repro.align.adept` — the multi-GPU driver with a V100 throughput
  model and CUPS accounting;
* :mod:`repro.align.seed_extend` — the cheaper alignment mode (x-drop seed
  extension);
* :mod:`repro.align.result` — result records, ANI and coverage.
"""

from .substitution import BLOSUM62, ScoringScheme, DEFAULT_SCORING, identity_matrix
from .result import (
    AlignmentResult,
    ALIGNMENT_RESULT_DTYPE,
    identity_array,
    coverage_array,
    passes_thresholds,
)
from .smith_waterman import smith_waterman, smith_waterman_reference, score_only
from .batch import batch_smith_waterman
from .seed_extend import seed_and_extend, ungapped_extension
from .adept import AdeptDriver, AlignmentWorkloadStats

__all__ = [
    "BLOSUM62",
    "ScoringScheme",
    "DEFAULT_SCORING",
    "identity_matrix",
    "AlignmentResult",
    "ALIGNMENT_RESULT_DTYPE",
    "identity_array",
    "coverage_array",
    "passes_thresholds",
    "smith_waterman",
    "smith_waterman_reference",
    "score_only",
    "batch_smith_waterman",
    "seed_and_extend",
    "ungapped_extension",
    "AdeptDriver",
    "AlignmentWorkloadStats",
]
