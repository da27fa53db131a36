"""Global configuration defaults for the PASTIS reproduction.

The values here mirror the program parameters of the paper's production run
(Table IV) and the system parameters of Summit used throughout the
evaluation.  Individual runs override them through
:class:`repro.core.params.PastisParams` and the hardware specs in
:mod:`repro.hardware`.  The SpGEMM kernel is not a run parameter, so it has
no default here (see :data:`repro.sparse.kernels.DEFAULT_KERNEL`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class ReproConfig:
    """Package-wide defaults.

    Attributes
    ----------
    kmer_length:
        k-mer length used for seeding (paper: 6).
    gap_open:
        Affine gap-open penalty (paper: 11).
    gap_extend:
        Affine gap-extension penalty (paper: 2).
    common_kmer_threshold:
        Minimum number of shared k-mers for a candidate pair to be aligned
        (paper: 2).
    ani_threshold:
        Minimum average nucleotide/aminoacid identity for a pair to enter the
        similarity graph (paper: 0.30).
    coverage_threshold:
        Minimum coverage of the shorter sequence (paper: 0.70).
    default_blocking:
        Default blocking factor (paper production run: 20x20; strong scaling
        experiments use 8x8).
    cache_dir:
        Default directory for the content-hashed stage cache
        (:mod:`repro.core.engine.cache`).  ``None`` (the shipped default)
        disables caching; runs opt in through ``PastisParams.cache_dir``,
        which this value seeds.
    seed:
        Default RNG seed used by synthetic data generators.
    """

    kmer_length: int = 6
    gap_open: int = 11
    gap_extend: int = 2
    common_kmer_threshold: int = 2
    ani_threshold: float = 0.30
    coverage_threshold: float = 0.70
    default_blocking: tuple[int, int] = field(default=(8, 8))
    cache_dir: str | None = None
    seed: int = 0


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    Readers never observe a partially written file: the payload lands in a
    sibling ``<name>.tmp`` first and is renamed over the target only once
    fully written.  If anything fails after the temp file exists — a full
    disk mid-write, a failed ``os.replace`` — the temp file is unlinked
    before the error propagates, so a crash cannot strand ``.tmp`` litter
    next to the real file.  Used by every persistent artifact writer: the
    stage cache, index shards and manifests, and run manifests.
    """
    p = Path(path)
    tmp = p.with_name(p.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return p


def atomic_write_text(path: str | Path, text: str) -> Path:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"))


#: Module-level singleton with the paper's default parameters.
DEFAULTS = ReproConfig()
