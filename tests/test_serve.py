"""The serving layer itself: index persistence, providers, CLI, batcher.

Contract-level bit-identity of query runs lives in ``test_query_mode.py``;
this module covers the machinery around it — the on-disk index (round-trip,
refusals, integrity taxonomy), the pluggable sequence providers, the
``python -m repro.serve`` CLI, and the request-batching front end.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.distsparse.blocked_summa import BlockSchedule
from repro.mpi.communicator import SimCommunicator
from repro.sequences import SequenceSet, write_fasta
from repro.sequences.alphabet import MURPHY10
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset
from repro.serve import (
    IndexCompatibilityError,
    IndexIntegrityError,
    KmerIndex,
    QueryBatcher,
    ServeIndexError,
    available_providers,
    build_index,
    load_sequences,
    register_provider,
)
from repro.serve.batcher import MATCH_DTYPE
from repro.serve.cli import main as serve_main
from repro.serve.query import resolve_queries
from repro.serve.index import (
    INDEX_VERSION,
    MANIFEST_NAME,
    SEQUENCES_NAME,
    SHARD_DIR,
    stripe_filename,
)
from search_oracles import unrestricted_operands
from summa_oracle import rank_pieces

N_DB = 16


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    """Database sequences, base params, and a built index."""
    sequences = synthetic_dataset(
        config=SyntheticDatasetConfig(
            n_sequences=N_DB, seed=11, family_fraction=0.8, mean_family_size=4.0
        )
    )
    params = PastisParams(
        kmer_length=4, nodes=4, num_blocks=4, common_kmer_threshold=1, cache_dir=None
    )
    index_dir = tmp_path_factory.mktemp("serve-index")
    build_index(sequences, params, index_dir)
    return sequences, params, str(index_dir)


# ---------------------------------------------------------------------- index
def test_index_round_trip_bitwise(db):
    """Stored stripes reload bitwise equal to the stripes of the full
    ``Aᵀ`` — every k-mer, the index keeps them all — on the batch birth's
    dense k-mer ids and chunks, so its k-mer coordinates are compared
    through the dictionary."""
    sequences, params, index_dir = db
    index = KmerIndex.open(index_dir)
    comm = SimCommunicator(params.nodes)
    _, bt, info = unrestricted_operands(sequences, params, comm)
    schedule = BlockSchedule(n_rows=N_DB, n_cols=N_DB, br=1, bc=index.bc)
    for c in range(index.bc):
        expected = bt.col_stripe(schedule.col_range(c))
        got = index.stripe(c, comm)
        assert got.shape == (index.kmer_space, expected.shape[1])
        assert got.col_range == expected.col_range
        np.testing.assert_array_equal(got.matrix.rows, info.kmer_ids[expected.matrix.rows])
        np.testing.assert_array_equal(got.matrix.cols, expected.matrix.cols)
        np.testing.assert_array_equal(got.matrix.values, expected.matrix.values)
        assert got.matrix.is_rowmajor()  # a served SpGEMM never sorts
        for (have, row_offset, col_offset), (want, dense_offset, want_col_offset) in zip(
            rank_pieces(got), rank_pieces(expected), strict=True
        ):
            assert col_offset == want_col_offset
            kmers = info.kmer_ids[want.rows + dense_offset]
            np.testing.assert_array_equal(have.rows, kmers - row_offset)
            np.testing.assert_array_equal(have.cols, want.cols)
            np.testing.assert_array_equal(have.values, want.values)


def test_index_round_trips_sequences_and_summary(db):
    sequences, params, index_dir = db
    index = KmerIndex.open(index_dir)
    stored = index.sequences()
    np.testing.assert_array_equal(stored.data, sequences.data)
    np.testing.assert_array_equal(stored.offsets, sequences.offsets)
    assert [str(n) for n in stored.names] == [str(n) for n in sequences.names]
    summary = index.summary()
    assert summary["n_sequences"] == N_DB
    assert summary["params"]["kmer_length"] == params.kmer_length
    report = index.verify()
    assert report["ok"] and report["stripes"] == index.bc


def test_build_refuses_overwrite_without_force(db, tmp_path):
    sequences, params, index_dir = db
    with pytest.raises(ServeIndexError, match="refusing to overwrite"):
        build_index(sequences, params, index_dir)
    # force=True rebuilds in place and the result still verifies
    rebuilt = build_index(sequences, params, index_dir, force=True)
    assert rebuilt.verify()["ok"]


def test_force_rebuild_leaves_only_the_files_its_manifest_names(db, tmp_path, capsys):
    """A forced rebuild over a version-3 per-rank layout, and over a larger
    blocking, unlinks every stripe file its manifest does not name — and
    nothing else under ``shards/``."""
    sequences, params, _ = db
    index_dir = tmp_path / "index"
    shards = index_dir / SHARD_DIR

    def stripe_files() -> set[str]:
        return {path.name for path in shards.iterdir() if path.name != "notes.txt"}

    def assert_rebuilt(index: KmerIndex) -> None:
        manifest = json.loads((index_dir / MANIFEST_NAME).read_text())
        assert stripe_files() == {stripe_filename(e["stripe"]) for e in manifest["stripes"]}
        assert len(manifest["stripes"]) == index.bc
        assert (shards / "notes.txt").read_text() == "kept"
        assert serve_main(["inspect", str(index_dir), "--verify"]) == 0
        assert json.loads(capsys.readouterr().out)["verify"]["ok"] is True

    # the layout a version-3 build left: each stripe as per-rank files
    narrow = build_index(sequences, params, index_dir)
    (shards / "notes.txt").write_text("kept")
    for c in range(narrow.bc):
        payload = (shards / stripe_filename(c)).read_bytes()
        (shards / stripe_filename(c)).unlink()
        for rank in range(params.nodes):
            (shards / f"stripe-{c:05d}-rank-{rank:03d}.bin").write_bytes(payload)
    _set_version(index_dir, 3)
    assert_rebuilt(build_index(sequences, params, index_dir, force=True))

    # a larger blocking's extra stripes
    wide = build_index(sequences, params.replace(num_blocks=16), index_dir, force=True)
    assert wide.bc > narrow.bc
    assert_rebuilt(build_index(sequences, params, index_dir, force=True))


def test_index_refuses_mismatched_params(db):
    sequences, params, index_dir = db
    index = KmerIndex.open(index_dir)
    with pytest.raises(IndexCompatibilityError, match="different parameters"):
        index.validate_params(params.replace(kmer_length=5))
    with pytest.raises(IndexCompatibilityError, match="bc="):
        index.validate_params(params.replace(num_blocks=16))
    # the pipeline front door refuses the same way
    with pytest.raises(IndexCompatibilityError):
        PastisPipeline(
            params.replace(index_dir=index_dir, kmer_length=5)
        ).run(sequences.subset(np.array([0])))


def test_refused_index_is_an_input_io_failure(db, tmp_path):
    """The index is opened inside the input-IO phase: a refused index
    leaves an error manifest that timed that phase."""
    from repro.obs.registry import RunRegistry

    sequences, params, index_dir = db
    registry_dir = tmp_path / "reg"
    with pytest.raises(IndexCompatibilityError):
        PastisPipeline(
            params.replace(
                index_dir=index_dir,
                kmer_length=5,
                run_registry=str(registry_dir),
            )
        ).run(sequences.subset(np.array([0])))
    manifest = RunRegistry(registry_dir).latest()
    assert manifest["status"] == "error"
    assert manifest["error"]["type"] == "IndexCompatibilityError"
    assert set(manifest["phase_seconds"]) == {"input_io"}


def test_index_refuses_previous_format_version(db, tmp_path):
    """An index written by the previous build is refused, not re-sorted per
    request, and the refusal names the command that rebuilds it."""
    _, _, index_dir = db
    manifest = json.loads((Path(index_dir) / MANIFEST_NAME).read_text())
    manifest["version"] = INDEX_VERSION - 1
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(
        IndexCompatibilityError,
        match=rf"version {INDEX_VERSION - 1} .*reads version {INDEX_VERSION}",
    ) as caught:
        KmerIndex.open(tmp_path)
    assert f"python -m repro.serve build --source <database> --out {tmp_path} --force" in str(
        caught.value
    )


@pytest.mark.parametrize("blocks", [1, 4, 9])
@pytest.mark.parametrize("nodes", [1, 4])
def test_a_loaded_stripe_is_the_born_stripe(db, tmp_path, nodes, blocks):
    """Each stripe off the index equals the stripe the build was born with:
    arrays (values, dtypes), ranges, chunk starts, block nnz and the stage
    cache's stripe digest."""
    from repro.core.engine.cache import stripe_digest
    from repro.core.kmer_matrix import extract_seed_triples, seed_operand
    from repro.distsparse.stripe import Stripe

    sequences, params, _ = db
    params = params.replace(nodes=nodes, num_blocks=blocks)
    index = build_index(sequences, params, tmp_path)
    comm = SimCommunicator(nodes)
    schedule = BlockSchedule(n_rows=N_DB, n_cols=N_DB, br=1, bc=index.bc)
    born = Stripe.of(
        seed_operand(extract_seed_triples(sequences, params)).transposed(), comm
    ).cut_columns(schedule.col_cuts())
    for c in range(index.bc):
        want, got = born.col_stripe(schedule.col_range(c)), index.stripe(c, comm)
        for name in ("rows", "cols", "values"):
            have, expected = getattr(got.matrix, name), getattr(want.matrix, name)
            assert have.dtype == expected.dtype and np.array_equal(have, expected)
            assert not have.flags.writeable
        assert (got.shape, got.row_range, got.col_range) == (
            want.shape, want.row_range, want.col_range
        )
        np.testing.assert_array_equal(got.row_starts, want.row_starts)
        np.testing.assert_array_equal(got.col_starts, want.col_starts)
        np.testing.assert_array_equal(got.block_nnz, want.block_nnz)
        assert got.kmer_counts is None
        assert stripe_digest(got) == stripe_digest(want)


def test_stale_sequences_payload_is_refused(db, tmp_path):
    """Tampered database residues must never be served from."""
    sequences, params, _ = db
    index_dir = tmp_path / "index"
    build_index(sequences, params, index_dir)
    payload = index_dir / SEQUENCES_NAME
    raw = bytearray(payload.read_bytes())
    # flip one residue code: the middle of the flat payload is in the residues
    raw[len(raw) // 2] ^= 0x01
    payload.write_bytes(bytes(raw))
    index = KmerIndex.open(index_dir)
    with pytest.raises(IndexIntegrityError):
        index.sequences()


def test_corrupt_shard_is_refused_with_file_named(db, tmp_path):
    sequences, params, _ = db
    index_dir = tmp_path / "index"
    build_index(sequences, params, index_dir)
    victim = index_dir / SHARD_DIR / stripe_filename(0)
    victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
    index = KmerIndex.open(index_dir)
    comm = SimCommunicator(params.nodes)
    with pytest.raises(IndexIntegrityError, match=f"corrupt index payload: .*{victim.name}"):
        index.stripe(0, comm)
    # an intact file whose header disagrees with the manifest's column range
    manifest = json.loads((index_dir / MANIFEST_NAME).read_text())
    manifest["stripes"][1]["col_range"][0] += 1
    (index_dir / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(IndexIntegrityError, match=f"{stripe_filename(1)} holds columns"):
        KmerIndex.open(index_dir).stripe(1, comm)
    with pytest.raises(IndexIntegrityError):
        index.verify()


def _payload_regions(victim: Path) -> dict[str, tuple[int, int]]:
    """Byte ranges of each region of a flat index payload, read off its header."""
    raw = victim.read_bytes()
    if victim.name != SEQUENCES_NAME:
        nnz = int(np.frombuffer(raw, dtype="<i8", count=2)[1])
        return {
            "header": (0, 64),
            "rows": (64, 64 + 8 * nnz),
            "cols": (64 + 8 * nnz, 64 + 16 * nnz),
            "values": (64 + 16 * nnz, len(raw)),
        }
    _, n, n_residues, n_banned, name_bytes = np.frombuffer(raw, dtype="<i8", count=5).tolist()
    bounds = np.cumsum([0, 40, 8 * (n + 1), 8 * (n + 1), 8 * n_banned, n_residues])
    names = ["header", "offsets", "name_offsets", "banned", "residues"]
    regions = {name: (int(lo), int(hi)) for name, lo, hi in zip(names, bounds, bounds[1:])}
    regions["names"] = (len(raw) - name_bytes, len(raw))
    return regions


def _flip_middle_byte(victim: Path, region: str) -> None:
    lo, hi = _payload_regions(victim)[region]
    assert hi > lo, f"fixture has an empty {region} region"
    raw = bytearray(victim.read_bytes())
    raw[(lo + hi) // 2] ^= 0x01
    victim.write_bytes(bytes(raw))


def _bump_count_word(victim: Path, index_dir: Path) -> None:
    """Add one to the header's entry count (nnz, or the number of sequences)."""
    raw = bytearray(victim.read_bytes())
    count = int(np.frombuffer(raw, dtype="<i8", count=2)[1])
    raw[8:16] = np.array([count + 1], dtype="<i8").tobytes()
    victim.write_bytes(bytes(raw))


def _as_version_2_index(victim: Path, index_dir: Path) -> None:
    """The layout a version-2 build left: npz payloads under a version-2 manifest."""
    victim.rename(victim.with_suffix(".npz"))
    _set_version(index_dir, 2)


def _as_version_3_index(victim: Path, index_dir: Path) -> None:
    """The layout a version-3 build left: a stripe stored as per-rank files
    (``sequences.bin`` was the same) under a version-3 manifest."""
    if victim.name != SEQUENCES_NAME:
        victim.rename(victim.with_name(f"{victim.stem}-rank-000.bin"))
    _set_version(index_dir, 3)


def _set_version(index_dir: Path, version: int) -> None:
    manifest = json.loads((index_dir / MANIFEST_NAME).read_text())
    manifest["version"] = version
    (index_dir / MANIFEST_NAME).write_text(json.dumps(manifest))


_CORRUPTIONS = {
    "absent": lambda victim, _: victim.unlink(),
    "truncated": lambda victim, _: victim.write_bytes(victim.read_bytes()[:-1]),
    "extended": lambda victim, _: victim.write_bytes(victim.read_bytes() + b"\0"),
    "count_disagrees": _bump_count_word,
    "version_2": _as_version_2_index,
    "version_3": _as_version_3_index,
}
_MANIFEST_CORRUPTIONS = {
    "absent": _CORRUPTIONS["absent"],
    # JSON still parses without its last byte, a newline: cut it in half
    "truncated": lambda victim, _: victim.write_bytes(
        victim.read_bytes()[: victim.stat().st_size // 2]
    ),
}
_SHARD_REGIONS = ("header", "rows", "cols", "values")
_SEQUENCES_REGIONS = ("header", "offsets", "name_offsets", "banned", "residues", "names")
_INTEGRITY_TABLE = [
    (payload, cell)
    for payload, regions in (("shard", _SHARD_REGIONS), ("sequences", _SEQUENCES_REGIONS))
    for cell in [*_CORRUPTIONS, *(f"flip_{region}" for region in regions)]
] + [("manifest", cell) for cell in _MANIFEST_CORRUPTIONS]


@pytest.fixture(scope="module")
def banned_index(db, tmp_path_factory):
    """An index whose every payload region is non-empty (``max_kmer_frequency``
    bans some k-mers), plus its largest shard's file name."""
    sequences, params, _ = db
    index_dir = tmp_path_factory.mktemp("banned-index")
    index = build_index(sequences, params.replace(max_kmer_frequency=3), index_dir)
    assert index.verify()["banned_kmers"] > 0
    shards = sorted((index_dir / SHARD_DIR).iterdir(), key=lambda p: p.stat().st_size)
    return index_dir, shards[-1].name


@pytest.mark.parametrize(
    "payload,cell", _INTEGRITY_TABLE, ids=[f"{p}-{c}" for p, c in _INTEGRITY_TABLE]
)
def test_every_index_payload_failure_has_one_outcome(banned_index, tmp_path, payload, cell):
    """Index payload × failure mode: each cell is refused with exactly one
    error type — integrity naming the damaged file, compatibility naming
    both versions and the rebuild command, or (no manifest: a killed build,
    not an index) the base error naming the manifest — and never answered
    from."""
    source, shard_name = banned_index
    index_dir = tmp_path / "index"
    shutil.copytree(source, index_dir)
    victim = index_dir / {
        "shard": Path(SHARD_DIR) / shard_name, "sequences": SEQUENCES_NAME,
        "manifest": MANIFEST_NAME,
    }[payload]
    if cell.startswith("flip_"):
        _flip_middle_byte(victim, cell[len("flip_"):])
    elif payload == "manifest":
        _MANIFEST_CORRUPTIONS[cell](victim, index_dir)
    else:
        _CORRUPTIONS[cell](victim, index_dir)
    if cell.startswith("version_"):
        expected = IndexCompatibilityError
    elif (payload, cell) == ("manifest", "absent"):
        expected = ServeIndexError
    else:
        expected = IndexIntegrityError
    with pytest.raises(ServeIndexError) as caught:
        KmerIndex.open(index_dir).verify()
    assert type(caught.value) is expected
    if expected is IndexCompatibilityError:
        assert f"version {cell[len('version_'):]} " in str(caught.value)
        assert f"version {INDEX_VERSION})" in str(caught.value)
        assert "python -m repro.serve build" in str(caught.value)
    else:
        assert victim.name in str(caught.value)


def test_served_run_reads_index_memory_read_only(db, monkeypatch):
    """Stripes come off disk read-only (views into the stripe file's bytes)
    and so do the database sequences, and a query
    run, a batcher drain and a deep verify all succeed on them: nothing
    writes into index memory."""
    from repro.serve import index as index_mod

    sequences, params, index_dir = db
    blocks, databases = [], []
    load_stripe_shards = index_mod.load_stripe_shards
    read_sequences = index_mod.KmerIndex.sequences

    def spy_stripe(*args, **kwargs):
        stripe = load_stripe_shards(*args, **kwargs)
        blocks.append(stripe.matrix)
        return stripe

    def spy_sequences(self):
        databases.append(read_sequences(self))
        return databases[-1]

    monkeypatch.setattr(index_mod, "load_stripe_shards", spy_stripe)
    monkeypatch.setattr(index_mod.KmerIndex, "sequences", spy_sequences)
    novel = SequenceSet.from_strings(["MKVLAAGIVGLLLAQPAMA"], names=["novel"])
    queries = SequenceSet.concatenate([sequences.subset(np.arange(0, 5)), novel])
    result = PastisPipeline(params.replace(index_dir=index_dir)).run(queries)
    assert result.query_rows.tolist() == [0, 1, 2, 3, 4, N_DB]
    batcher = QueryBatcher(index_dir, params, max_batch_queries=4)
    batcher.submit(sequences.subset(np.arange(5, 8)))
    assert len(batcher.drain()) == 1
    batcher.submit(sequences.subset(np.arange(8, 10)))
    assert len(batcher.drain()) == 1
    assert KmerIndex.open(index_dir).verify()["ok"]

    assert blocks and databases
    for block in blocks:
        for arr in (block.rows, block.cols, block.values):
            assert not arr.flags.writeable
    for database in databases:
        assert not database.codes(0).flags.writeable
        assert not database._offsets.flags.writeable
    # after two drains the session holds the stripes it loaded, still read-only
    held = batcher.index.matrix(SimCommunicator(params.nodes))
    for col_range in held.col_ranges:
        matrix = held.col_stripe(col_range).matrix
        assert any(matrix is block for block in blocks)
        for arr in (matrix.rows, matrix.cols, matrix.values):
            assert not arr.flags.writeable
    assert not batcher.index.sequences().codes(0).flags.writeable


# ------------------------------------------------------------- member resolution
def _resolve(queries: list[str], database: list[str]) -> list[int]:
    return resolve_queries(
        SequenceSet.from_strings(queries), SequenceSet.from_strings(database)
    ).tolist()


def test_resolver_duplicate_resolves_to_first_occurrence():
    assert _resolve(["KLMN", "ACDE"], ["MKV", "ACDE", "KLMN", "ACDE", "KLMN"]) == [2, 1]


def test_resolver_same_length_one_residue_off_is_novel():
    assert _resolve(["ACDF", "ACDE"], ["ACDE", "WWWW"]) == [-1, 0]


def test_resolver_prefix_of_a_member_is_novel():
    assert _resolve(["ACD", "ACDEF"], ["ACDE", "ACDEFG"]) == [-1, -1]


def test_resolver_empty_query_set():
    rows = resolve_queries(
        SequenceSet.from_strings([]), SequenceSet.from_strings(["ACDE"])
    )
    assert rows.dtype == np.int64 and rows.shape == (0,)


def test_resolver_refuses_alphabet_mismatch():
    database = SequenceSet.from_strings(["ACDE"])
    with pytest.raises(ValueError, match="does not match the database alphabet"):
        resolve_queries(database.reencode(MURPHY10), database)


def test_resolver_equals_a_residue_dictionary():
    """Exact comparison agrees with first-occurrence lookup by residue bytes
    on a database full of equal lengths and duplicates."""
    rng = np.random.default_rng(5)
    letters = np.array(list("ACDE"))
    database = ["".join(rng.choice(letters, size=rng.integers(1, 4))) for _ in range(60)]
    queries = ["".join(rng.choice(letters, size=rng.integers(0, 5))) for _ in range(80)]
    first: dict[str, int] = {}
    for i, residues in enumerate(database):
        first.setdefault(residues, i)
    assert _resolve(queries, database) == [first.get(q, -1) for q in queries]


def test_open_refuses_non_index_directory(tmp_path):
    with pytest.raises(ServeIndexError, match="no index manifest"):
        KmerIndex.open(tmp_path)
    (tmp_path / "index.json").write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ServeIndexError, match="not a pastis-kmer-index"):
        KmerIndex.open(tmp_path)


# ------------------------------------------------------------------ edge cases
def test_empty_query_batch(db):
    """Zero queries is a served no-op, not a crash."""
    sequences, params, index_dir = db
    empty = SequenceSet.from_strings([], alphabet=sequences.alphabet)
    result = PastisPipeline(
        params.replace(index_dir=index_dir)
    ).run(empty)
    assert result.similarity_graph.edges.size == 0
    assert result.query_rows.size == 0
    assert result.stats.extras["query"]["n_queries"] == 0


def test_query_longer_than_any_database_sequence(db):
    """An over-length novel query degrades to 'no matches', never a crash."""
    sequences, params, index_dir = db
    longest = int(np.diff(sequences.offsets).max())
    rng = np.random.default_rng(0)
    residues = "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=longest * 3))
    query = SequenceSet.from_strings([residues], names=["long-novel"])
    result = PastisPipeline(
        params.replace(index_dir=index_dir)
    ).run(query)
    assert result.query_rows.tolist() == [N_DB]
    edges = result.similarity_graph.edges
    # every admitted edge (if any survived coverage) touches the query row
    assert all(N_DB in (int(e["row"]), int(e["col"])) for e in edges)


# ------------------------------------------------------------------- providers
def test_synthetic_provider_specs():
    bare = load_sequences("synthetic:12")
    assert len(bare) == 12
    seeded = load_sequences("synthetic:n_sequences=8,seed=3,family_fraction=0.5")
    again = load_sequences("synthetic:n_sequences=8,seed=3,family_fraction=0.5")
    np.testing.assert_array_equal(seeded.data, again.data)


def test_fasta_provider_round_trip(db, tmp_path):
    sequences, _, _ = db
    path = tmp_path / "db.fasta"
    assert write_fasta(path, sequences) == N_DB
    loaded = load_sequences(f"fasta:{path}")
    np.testing.assert_array_equal(loaded.data, sequences.data)
    assert [str(n) for n in loaded.names] == [str(n) for n in sequences.names]


def test_provider_spec_errors():
    with pytest.raises(ValueError, match="provider:arguments"):
        load_sequences("no-colon-here")
    with pytest.raises(ValueError, match="unknown sequence provider"):
        load_sequences("s3:bucket/key")
    with pytest.raises(ValueError, match="bad synthetic argument"):
        load_sequences("synthetic:bogus=1")
    with pytest.raises(ValueError, match="needs a path"):
        load_sequences("fasta:")


def test_register_custom_provider():
    def tiny(args: str) -> SequenceSet:
        return SequenceSet.from_strings(["ACDEFGHIK"] * int(args))

    register_provider("tiny", tiny)
    try:
        assert "tiny" in available_providers()
        assert len(load_sequences("tiny:3")) == 3
        with pytest.raises(ValueError, match="invalid provider name"):
            register_provider("bad:name", tiny)
    finally:
        from repro.serve import providers

        providers._REGISTRY.pop("tiny", None)


# ------------------------------------------------------------------------- CLI
def test_cli_build_inspect_query(tmp_path, capsys):
    out = tmp_path / "cli-index"
    source = "synthetic:n_sequences=12,seed=4,family_fraction=0.8,mean_family_size=4.0"
    assert (
        serve_main(
            [
                "build",
                "--source", source,
                "--out", str(out),
                "--kmer-length", "4",
                "--nodes", "4",
                "--num-blocks", "4",
            ]
        )
        == 0
    )
    assert (out / "index.json").exists()
    assert "built index" in capsys.readouterr().out

    assert serve_main(["inspect", str(out), "--verify"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_sequences"] == 12
    assert summary["verify"]["ok"] is True

    report_path = tmp_path / "report.json"
    assert (
        serve_main(
            [
                "query",
                "--index", str(out),
                "--source", source,
                "--dedup",
                "--common-kmer-threshold", "1",
                "--report", str(report_path),
            ]
        )
        == 0
    )
    assert "matches:" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["query_n_queries"] == 12
    assert report["query_members"] == 12


# --------------------------------------------------------------------- batcher
def test_batcher_coalescing_and_split_answers(db):
    """Requests coalesce under the bound, never split, and each request's
    matches equal a standalone run of its own queries."""
    sequences, params, index_dir = db
    batcher = QueryBatcher(index_dir, params, max_batch_queries=4)
    r1 = batcher.submit(sequences.subset(np.arange(0, 3)))
    r2 = batcher.submit(sequences.subset(np.arange(3, 5)))
    r3 = batcher.submit(sequences.subset(np.arange(5, 6)))
    assert batcher.pending_requests == 3
    answers = {a.request_id: a for a in batcher.drain()}
    assert batcher.pending_requests == 0
    # 3 + 2 > 4 forces a new batch; 2 + 1 <= 4 coalesces
    assert answers[r1].batch_index == 0
    assert answers[r2].batch_index == answers[r3].batch_index == 1

    # each request's matches == a standalone query run over its own queries
    for rid, lo, hi in ((r1, 0, 3), (r2, 3, 5), (r3, 5, 6)):
        solo = PastisPipeline(
            params.replace(index_dir=index_dir)
        ).run(sequences.subset(np.arange(lo, hi)))
        edges = solo.similarity_graph.edges
        for q, row in enumerate(answers[rid].rows):
            expected = set(edges["col"][edges["row"] == row]) | set(
                edges["row"][edges["col"] == row]
            )
            assert set(answers[rid].matches[q]["partner"]) == {
                int(p) for p in expected
            }

    summary = batcher.queue_summary()
    assert summary["batches"] == 2 and summary["queries"] == 6
    assert summary["identity_residual"] == pytest.approx(0.0, abs=1e-12)
    # overlap hides work: the windowed clock never exceeds the serial clock
    assert summary["clock_seconds"] <= summary["serial_clock_seconds"] + 1e-12


def test_batcher_metrics_and_empty_drain(db):
    sequences, params, index_dir = db
    batcher = QueryBatcher(index_dir, params, max_batch_queries=8)
    assert batcher.drain() == []
    batcher.submit(sequences.subset(np.arange(0, 2)), request_id="mine")
    (answer,) = batcher.drain()
    assert answer.request_id == "mine"
    assert answer.total_matches == sum(m.size for m in answer.matches)
    hub = batcher.hub
    assert hub.value("serve_requests") == 1.0
    assert hub.value("serve_queries") == 2.0
    assert hub.value("serve_batches") == 1.0
    assert hub.histogram("serve_batch_wall_seconds")["count"] == 1.0


def test_batcher_oversized_request_forms_own_batch(db):
    sequences, params, index_dir = db
    batcher = QueryBatcher(index_dir, params, max_batch_queries=2)
    big = batcher.submit(sequences.subset(np.arange(0, 5)))
    small = batcher.submit(sequences.subset(np.arange(5, 6)))
    answers = {a.request_id: a for a in batcher.drain()}
    assert answers[big].batch_index == 0
    assert answers[small].batch_index == 1
    assert len(answers[big].matches) == 5


# ---------------------------------------------------------------------- sessions
def _matches_oracle(edges: np.ndarray, row: int) -> np.ndarray:
    """One query row's matches, scanned out of every edge."""
    as_row = edges[edges["row"] == row]
    as_col = edges[edges["col"] == row]
    out = np.empty(as_row.size + as_col.size, dtype=MATCH_DTYPE)
    out["partner"] = np.concatenate([as_row["col"], as_col["row"]])
    for key in ("score", "ani", "coverage"):
        out[key] = np.concatenate([as_row[key], as_col[key]])
    return np.sort(out, order="partner")


def test_session_reads_each_payload_once(db, monkeypatch):
    """Across drains a batcher reads and verifies every stripe, and the
    sequences payload, exactly once."""
    from repro.serve import index as index_mod

    sequences, params, index_dir = db
    loads, reads = [], []
    load_stripe_shards = index_mod.load_stripe_shards
    read_sequences = index_mod.KmerIndex._read_sequences

    def spy_stripe(shard_dir, c, *args, **kwargs):
        loads.append(c)
        return load_stripe_shards(shard_dir, c, *args, **kwargs)

    def spy_sequences(self):
        reads.append(self.path)
        return read_sequences(self)

    monkeypatch.setattr(index_mod, "load_stripe_shards", spy_stripe)
    monkeypatch.setattr(index_mod.KmerIndex, "_read_sequences", spy_sequences)
    batcher = QueryBatcher(index_dir, params, max_batch_queries=2)
    for lo in (0, 2, 4, 6):
        batcher.submit(sequences.subset(np.arange(lo, lo + 2)))
        batcher.submit(sequences.subset(np.arange(lo + 8, lo + 9)))
        assert len(batcher.drain()) == 2
    bc = batcher.index.bc
    assert len(batcher.batches) == 8
    assert sorted(loads) == list(range(bc))
    assert len(reads) == 1
    assert batcher.hub.value("serve_index_opens") == 1.0
    assert batcher.hub.value("serve_stripe_loads") == bc


def test_session_requests_equal_one_shot_runs(db):
    """Every request a session answers — first drain or later, from the
    disk or from held stripes — equals a one-shot run of its queries:
    answers byte for byte, stats, block records and the per-rank ledger."""
    from test_cache import MEASURED_STATS_KEYS, assert_results_identical

    sequences, params, index_dir = db
    novel = SequenceSet.from_strings(["MKVLAAGIVGLLLAQPAMA"], names=["novel"])
    requests = [
        sequences.subset(np.arange(0, 2)),
        SequenceSet.concatenate([sequences.subset(np.arange(7, 9)), novel]),
        sequences.subset(np.arange(2, 4)),
    ]
    batcher = QueryBatcher(index_dir, params, max_batch_queries=3)
    for _ in range(2):
        for queries in requests:
            batcher.submit(queries)
        answers = batcher.drain()
        assert len(answers) == len(requests)
        for answer, batch, queries in zip(answers, batcher.batches[-3:], requests):
            solo = PastisPipeline(params.replace(index_dir=index_dir)).run(queries)
            assert_results_identical(solo, batch.result, skip_stats=MEASURED_STATS_KEYS)
            assert answer.rows.tolist() == solo.query_rows.tolist()
            edges = solo.similarity_graph.edges
            for row, got in zip(answer.rows, answer.matches):
                assert got.tobytes() == _matches_oracle(edges, int(row)).tobytes()
    assert any(answer.total_matches for answer in answers)


def test_session_follows_a_rebuilt_index(db, tmp_path):
    """A rebuild under a live batcher is seen at the next drain: another
    database is answered from; other parameters are refused inside the
    run's input-IO phase, leaving its error manifest."""
    from repro.obs.registry import RunRegistry

    sequences, params, _ = db
    index_dir = tmp_path / "index"
    registry = tmp_path / "registry"
    build_index(sequences, params, index_dir)
    batcher = QueryBatcher(
        str(index_dir), params.replace(run_registry=str(registry)), max_batch_queries=8
    )
    batcher.submit(sequences.subset(np.arange(0, 3)))
    batcher.drain()

    other = synthetic_dataset(
        config=SyntheticDatasetConfig(
            n_sequences=N_DB + 4, seed=23, family_fraction=0.8, mean_family_size=4.0
        )
    )
    build_index(other, params, index_dir, force=True)
    queries = other.subset(np.arange(N_DB, N_DB + 3))
    batcher.submit(queries)
    (answer,) = batcher.drain()
    solo = PastisPipeline(params.replace(index_dir=str(index_dir))).run(queries)
    assert answer.rows.tolist() == [N_DB, N_DB + 1, N_DB + 2]
    edges = solo.similarity_graph.edges
    assert edges.size
    for row, got in zip(answer.rows, answer.matches):
        assert got.tobytes() == _matches_oracle(edges, int(row)).tobytes()
    assert batcher.index.n_sequences == N_DB + 4
    assert batcher.hub.value("serve_index_opens") == 2.0

    build_index(other, params.replace(kmer_length=5), index_dir, force=True)
    batcher.submit(queries)
    with pytest.raises(IndexCompatibilityError, match="different parameters"):
        batcher.drain()
    manifest = RunRegistry(registry).latest()
    assert manifest["status"] == "error"
    assert manifest["error"]["type"] == "IndexCompatibilityError"
    assert set(manifest["phase_seconds"]) == {"input_io"}


def test_shard_tampered_after_load(db, tmp_path):
    """A shard changed after a session loaded it: the session answers from
    what it verified; a deep verify — even the session's own — and a new
    batcher read the disk and refuse, naming the file."""
    sequences, params, _ = db
    index_dir = tmp_path / "index"
    build_index(sequences, params, index_dir)
    queries = sequences.subset(np.arange(0, 4))
    batcher = QueryBatcher(str(index_dir), params, max_batch_queries=8)
    batcher.submit(queries)
    (before,) = batcher.drain()

    victim = max((index_dir / SHARD_DIR).iterdir(), key=lambda p: p.stat().st_size)
    _flip_middle_byte(victim, "rows")
    batcher.submit(queries)
    (after,) = batcher.drain()
    assert [m.tobytes() for m in after.matches] == [m.tobytes() for m in before.matches]
    for index in (KmerIndex.open(index_dir), batcher.index):
        with pytest.raises(IndexIntegrityError, match=victim.name):
            index.verify()
    fresh = QueryBatcher(str(index_dir), params, max_batch_queries=8)
    fresh.submit(queries)
    with pytest.raises(IndexIntegrityError, match=victim.name):
        fresh.drain()


def test_pipeline_refuses_an_index_it_does_not_query(db):
    sequences, params, index_dir = db
    index = KmerIndex.open(index_dir)
    with pytest.raises(ValueError, match="opened index"):
        PastisPipeline(params, index=index)
    with pytest.raises(ValueError, match="opened index"):
        PastisPipeline(params.replace(index_dir=str(Path(index_dir) / "elsewhere")), index=index)
    result = PastisPipeline(params.replace(index_dir=index_dir), index=index).run(
        sequences.subset(np.arange(0, 2))
    )
    assert result.query_rows.tolist() == [0, 1]
