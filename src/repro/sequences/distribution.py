"""Sequence-length distributions for synthetic data generation.

Metagenomic protein catalogs (e.g. Metaclust, the paper's 405M-sequence
dataset) have a long-tailed length distribution: many short ORF fragments and
a tail of long proteins.  The variability of sequence lengths is explicitly
called out by the paper as one of the things that make load balancing hard,
so the synthetic generator must reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LengthDistribution:
    """A log-normal-with-floor sequence length distribution.

    ``length = max(min_length, round(lognormal(mean, sigma)))`` truncated at
    ``max_length``.
    """

    log_mean: float = 5.0   # exp(5.0) ~ 148 residues, typical protein fragment
    log_sigma: float = 0.45
    min_length: int = 30
    max_length: int = 2000

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` lengths."""
        raw = rng.lognormal(mean=self.log_mean, sigma=self.log_sigma, size=n)
        lengths = np.clip(np.round(raw).astype(np.int64), self.min_length, self.max_length)
        return lengths

    def mean_length(self) -> float:
        """Analytic mean of the underlying log-normal (before clipping)."""
        return float(np.exp(self.log_mean + self.log_sigma**2 / 2.0))


def metagenome_length_distribution() -> LengthDistribution:
    """Default distribution mimicking assembled metagenomic protein fragments."""
    return LengthDistribution(log_mean=5.0, log_sigma=0.45, min_length=30, max_length=2000)
