"""Tests for repro.sequences.synthetic and distribution."""

import numpy as np
import pytest

from repro.sequences.distribution import (
    LengthDistribution,
    metagenome_length_distribution,
)
from repro.sequences.synthetic import (
    SyntheticDatasetConfig,
    family_labels,
    make_family,
    synthetic_dataset,
)


def test_dataset_size_and_determinism():
    a = synthetic_dataset(n_sequences=50, seed=1)
    b = synthetic_dataset(n_sequences=50, seed=1)
    assert len(a) == 50
    assert np.array_equal(a.data, b.data)
    assert list(a.names) == list(b.names)


def test_different_seeds_differ():
    a = synthetic_dataset(n_sequences=50, seed=1)
    b = synthetic_dataset(n_sequences=50, seed=2)
    assert not np.array_equal(a.lengths, b.lengths) or a.data.shape != b.data.shape or not np.array_equal(a.data[:100], b.data[:100])


def test_lengths_respect_distribution_bounds():
    config = SyntheticDatasetConfig(
        n_sequences=60,
        # nearly uniform over [50, 120]: log-normal around the midpoint
        length_distribution=LengthDistribution(
            log_mean=float(np.log(85.0)), log_sigma=0.10, min_length=50, max_length=120
        ),
        seed=3,
    )
    seqs = synthetic_dataset(config=config)
    assert int(seqs.lengths.min()) >= 30  # fragments may shorten members
    assert int(seqs.lengths.max()) <= 140  # indels may lengthen slightly


def test_family_structure_present():
    seqs = synthetic_dataset(n_sequences=100, seed=5)
    labels = family_labels(seqs)
    families, counts = np.unique(labels[labels >= 0], return_counts=True)
    assert families.size >= 5
    assert counts.max() >= 2
    singletons = (labels < 0).sum()
    assert singletons > 0


def test_family_members_are_similar():
    from repro.align.smith_waterman import smith_waterman

    config = SyntheticDatasetConfig(
        n_sequences=20, family_fraction=1.0, mutation_rate=0.05, fragment_probability=0.0, seed=9
    )
    seqs = synthetic_dataset(config=config)
    labels = family_labels(seqs)
    # find two members of the same family
    fam_ids, counts = np.unique(labels, return_counts=True)
    fam = fam_ids[counts >= 2][0]
    members = np.flatnonzero(labels == fam)[:2]
    result = smith_waterman(seqs.codes(members[0]), seqs.codes(members[1]))
    assert result.identity > 0.7


def test_make_family_member_count(rng):
    config = SyntheticDatasetConfig(n_sequences=10, seed=0)
    members, names = make_family(4, config, rng, family_id=3)
    assert len(members) == 4
    assert names == [f"fam3_m{i}" for i in range(4)]


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticDatasetConfig(n_sequences=0).validate()
    with pytest.raises(ValueError):
        SyntheticDatasetConfig(family_fraction=1.5).validate()
    with pytest.raises(ValueError):
        SyntheticDatasetConfig(mutation_rate=1.0).validate()
    with pytest.raises(ValueError):
        SyntheticDatasetConfig(indel_rate=0.6).validate()


def test_length_distribution_sampling(rng):
    dist = LengthDistribution(log_mean=5.0, log_sigma=0.4, min_length=30, max_length=500)
    lengths = dist.sample(500, rng)
    assert lengths.min() >= 30
    assert lengths.max() <= 500
    assert 80 < lengths.mean() < 300
    assert dist.mean_length() > 0


def test_metagenome_distribution_defaults():
    dist = metagenome_length_distribution()
    assert dist.min_length == 30
    assert dist.max_length == 2000


def test_zero_singletons_configuration():
    config = SyntheticDatasetConfig(n_sequences=30, family_fraction=1.0, seed=2)
    seqs = synthetic_dataset(config=config)
    labels = family_labels(seqs)
    assert (labels < 0).sum() == 0
