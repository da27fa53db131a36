"""Tests for repro.sequences.fasta."""

import io

import pytest

from repro.sequences.fasta import (
    FastaRecord,
    iter_fasta,
    read_fasta,
    read_fasta_partitioned,
    write_fasta,
)
from repro.sequences.sequence import SequenceSet
from repro.sequences.synthetic import synthetic_dataset


def test_iter_fasta_basic():
    text = ">a desc\nACDE\nFGH\n>b\nKLM\n"
    records = list(iter_fasta(io.StringIO(text)))
    assert records == [
        FastaRecord(header="a desc", sequence="ACDEFGH"),
        FastaRecord(header="b", sequence="KLM"),
    ]
    assert records[0].name == "a"


def test_iter_fasta_skips_blank_lines():
    text = ">a\nAC\n\nDE\n"
    records = list(iter_fasta(io.StringIO(text)))
    assert records[0].sequence == "ACDE"


def test_iter_fasta_rejects_headerless_content():
    with pytest.raises(ValueError):
        list(iter_fasta(io.StringIO("ACDEF\n")))


def test_write_and_read_roundtrip(tmp_path):
    seqs = SequenceSet.from_strings(["ACDEFGHIKL", "MNPQRSTVWY"], names=["x", "y"])
    path = tmp_path / "test.fasta"
    count = write_fasta(path, seqs, line_width=4)
    assert count == 2
    loaded = read_fasta(path)
    assert len(loaded) == 2
    assert loaded.residues(0) == "ACDEFGHIKL"
    assert list(loaded.names) == ["x", "y"]


def test_write_fasta_from_records(tmp_path):
    path = tmp_path / "recs.fasta"
    write_fasta(path, [FastaRecord("r1", "AAAA"), FastaRecord("r2", "CCCC")])
    loaded = read_fasta(path)
    assert loaded.residues(1) == "CCCC"


def test_roundtrip_synthetic_dataset(tmp_path):
    seqs = synthetic_dataset(n_sequences=25, seed=3)
    path = tmp_path / "synthetic.fasta"
    write_fasta(path, seqs)
    loaded = read_fasta(path)
    assert len(loaded) == len(seqs)
    assert loaded.total_residues == seqs.total_residues
    for i in (0, 10, 24):
        assert loaded.residues(i) == seqs.residues(i)


@pytest.mark.parametrize("nparts", [1, 2, 3, 5])
def test_partitioned_read_covers_everything_once(tmp_path, nparts):
    seqs = synthetic_dataset(n_sequences=40, seed=4)
    path = tmp_path / "p.fasta"
    write_fasta(path, seqs)
    parts = read_fasta_partitioned(path, nparts)
    assert len(parts) == nparts
    total = sum(len(p) for p in parts)
    assert total == len(seqs)
    names = [str(n) for p in parts for n in p.names]
    assert sorted(names) == sorted(str(n) for n in seqs.names)


def test_unknown_residue_refusal_names_file_record_and_characters(tmp_path):
    path = tmp_path / "bad.fasta"
    path.write_text(">ok first\nACDEF\n>sp|P1|bad second record\nAC#DE\nF!G\n>later\nKLM\n")
    for read in (read_fasta, lambda p: read_fasta_partitioned(p, 2)):
        with pytest.raises(ValueError) as refused:
            read(path)
        message = str(refused.value)
        assert str(path) in message
        assert ">sp|P1|bad second record" in message
        assert "['!', '#']" in message and "protein20" in message
        assert "ok first" not in message and "later" not in message
    # a non-ASCII residue is named as itself
    path.write_text(">uni\nACDÉF\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r">uni' has unknown residue characters \['É'\]"):
        read_fasta(path)


def test_partitioned_read_invalid_parts(tmp_path):
    path = tmp_path / "x.fasta"
    write_fasta(path, SequenceSet.from_strings(["AC"]))
    with pytest.raises(ValueError):
        read_fasta_partitioned(path, 0)
