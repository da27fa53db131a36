"""The bytes that outlive a run, pinned: index shards, stripe digests, cache keys.

An index built by one version of the code is served by another, and a stage
cache written by one run is replayed by the next; both are trusted only
while their bytes and the keys over them stay what they were.  This test
builds a small seeded index and runs a small cached all-vs-all search and a
cached query search against that index at nodes {1, 4} × ``num_blocks``
{1, 4} (and 9, whose stripes cross grid chunks), and compares against
constants:

* the sha256 of every shard file of the index;
* every stripe digest the index manifest stamps;
* every block cache key of both runs.

A change to how operands are born, cut or stored must leave all of them
equal.  A change that alters them on purpose bumps ``INDEX_VERSION`` or
``CACHE_VERSION`` and recaptures the constants with
``PYTHONPATH=src python tests/test_persisted_bytes.py``.
"""

from __future__ import annotations

import hashlib
import json
import pprint
import tempfile
from pathlib import Path

import pytest

import repro.core.pipeline as pipeline_mod
from repro.core.params import PastisParams
from repro.core.pipeline import PastisPipeline
from repro.sequences.sequence import SequenceSet
from repro.sequences.synthetic import SyntheticDatasetConfig, synthetic_dataset
from repro.serve import build_index
from repro.serve.index import MANIFEST_NAME, SHARD_DIR

#: nodes {1, 4} × num_blocks {1, 4}, and a 4-node cell whose three column
#: stripes cross the grid's two column chunks
CELLS = [(1, 1), (1, 4), (4, 1), (4, 4), (4, 9)]


def _sequences():
    database = synthetic_dataset(
        config=SyntheticDatasetConfig(
            n_sequences=22, seed=29, family_fraction=0.8, mean_family_size=4.0
        )
    )
    novel = synthetic_dataset(n_sequences=2, seed=31)
    queries = SequenceSet.concatenate([database.subset([3, 4, 17]), novel])
    return database, queries


def _run_keys(monkeypatch, params, sequences) -> dict[str, str]:
    """Every block cache key of one cached run, by ``"r,c"``."""
    keys = {}
    build = pipeline_mod.build_stage_cache

    def spy(*args, **kwargs):
        cache = build(*args, **kwargs)
        keys.update({f"{r},{c}": key for (r, c), key in cache.keys.items()})
        return cache

    monkeypatch.setattr(pipeline_mod, "build_stage_cache", spy)
    try:
        PastisPipeline(params).run(sequences)
    finally:
        monkeypatch.setattr(pipeline_mod, "build_stage_cache", build)
    return dict(sorted(keys.items()))


def persisted(root: Path, nodes: int, blocks: int, monkeypatch) -> dict:
    """What one cell persists: shard hashes, stamped digests, cache keys."""
    database, queries = _sequences()
    params = PastisParams(
        kmer_length=4, nodes=nodes, num_blocks=blocks, common_kmer_threshold=1,
        cache_dir=str(root / "cache"),
    )
    index_dir = root / "index"
    build_index(database, params, index_dir)
    manifest = json.loads((index_dir / MANIFEST_NAME).read_text())
    shards = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((index_dir / SHARD_DIR).iterdir())
    }
    return {
        "shards": shards,
        "stripe_digests": [stripe["digest"] for stripe in manifest["stripes"]],
        "all_vs_all_keys": _run_keys(monkeypatch, params, database),
        "query_keys": _run_keys(
            monkeypatch, params.replace(index_dir=str(index_dir)), queries
        ),
    }


EXPECTED = {(1, 1): {'shards': {'stripe-00000-rank-000.bin': '030ddfef1dfc08c0e70076296db31468824419fe5a9a9afb7ae8577ef5c377e0'},
          'stripe_digests': ['b99a204661376609a5fda9beab1ffd5ec450e49f90949be6764a22a227ed4337'],
          'all_vs_all_keys': {'0,0': 'b6837f10e6ed379b9ef8241067c831f6daf32e375ae252d92a52702e2502343e'},
          'query_keys': {'0,0': '90d6cff07bcef992c6ca48c7ac86a94f1ebccc908cbd42f5c0b13d93bee1416b'}},
 (1, 4): {'shards': {'stripe-00000-rank-000.bin': '6d43dcd6da1d82606ecf9f50170404e5b8ec94ce8075ef251da380c987cc8341',
                     'stripe-00001-rank-000.bin': '43d8a64efbe9c756a1bb5a92bd65ee22f36ba7c9afca39c3a8d404e809fa10b9'},
          'stripe_digests': ['a0c776b9abc2f9cee3139cc02620956b235e19abb8be53afee578d8ee4deed67',
                             '8d8813db39004b91251c2504f4334108f86abdc40d92affc7122c84dae078faa'],
          'all_vs_all_keys': {'0,0': 'f2f9743452430b1c0b1349e20cbb0ab47dcb7c45ab35c55447f6aff4c446cc77',
                              '0,1': '703fb8aa636cc760a04b4eaa75c7fd1b2eaae526ee8e8a092fda5cb02359ec31',
                              '1,0': 'c60c042f490dd31002d56dc01fa69b9e833bd47bb71a281eb02d81b7d3f5b7ce',
                              '1,1': '09eb6d770e46c5dffb948256dfbd4963b3e95fb3fa198d80c215c2790d8d0ca8'},
          'query_keys': {'0,0': '801030cf3672da15cd23d26412ba65fb6318640069b21d162f0207f01113f6f0',
                         '0,1': 'ddf094e34e1d363027c917535517c887cc3affced16f5bfdfa4796c835150595',
                         '1,0': 'ba92feb9ab1f7286f20980ce9efead34a8c5130680abed114d224c4df7c1e930',
                         '1,1': '1cbacb33eb2a0407c858ba823914d189c5605df814c1cdb9b1e4cdb0351a8cd7'}},
 (4, 1): {'shards': {'stripe-00000-rank-000.bin': '6d4580ebf363da83f23e3b75b0f49b8e6bae4445803bfd82a1d91d93f99bcba7',
                     'stripe-00000-rank-001.bin': 'fb342b00d24df10b52d6ee846551bfb603a9bfab2b09499eb5a2009cbb993c6a',
                     'stripe-00000-rank-002.bin': 'eee19d121a12176d196efc1d0e9fe17a70fa5585637a2f35b84bbe074efea7ab',
                     'stripe-00000-rank-003.bin': '0ce02b099bf4d7ab891823494529c05e60daab1458810b563f0705cad4586aa7'},
          'stripe_digests': ['d4d1d1278d4c06292ca8469f20cdc79beebb34e05043ee988c825ae81876a1eb'],
          'all_vs_all_keys': {'0,0': '90137580b03d0ae74b861a070b852a5a7497e3a300a531cf1ee4f50e9a6839cb'},
          'query_keys': {'0,0': 'f044378844c14bf00e913de3f046f9866546c9fcb8c8566dfeaeb291a07f911d'}},
 (4, 4): {'shards': {'stripe-00000-rank-000.bin': '6d4580ebf363da83f23e3b75b0f49b8e6bae4445803bfd82a1d91d93f99bcba7',
                     'stripe-00000-rank-001.bin': 'b5990967e2f2f06b01d2c9fa53361cdb6adf446ab23fe3fc82caf20a25ec0921',
                     'stripe-00000-rank-002.bin': 'eee19d121a12176d196efc1d0e9fe17a70fa5585637a2f35b84bbe074efea7ab',
                     'stripe-00000-rank-003.bin': '1dc1bc115e7e4389300ed266647d7c017ae9b6b64acc4d2c0b3ac42c54e8e789',
                     'stripe-00001-rank-000.bin': 'b5990967e2f2f06b01d2c9fa53361cdb6adf446ab23fe3fc82caf20a25ec0921',
                     'stripe-00001-rank-001.bin': 'fb342b00d24df10b52d6ee846551bfb603a9bfab2b09499eb5a2009cbb993c6a',
                     'stripe-00001-rank-002.bin': '1dc1bc115e7e4389300ed266647d7c017ae9b6b64acc4d2c0b3ac42c54e8e789',
                     'stripe-00001-rank-003.bin': '0ce02b099bf4d7ab891823494529c05e60daab1458810b563f0705cad4586aa7'},
          'stripe_digests': ['ddfb75606dcb8a8a3bc705c7d75a7c20be9a623dbc1685fcf806d2abd173b189',
                             'f39d65e9072546f3a87570011ef41a822fc22f0899a41d163718ed31fa3de56a'],
          'all_vs_all_keys': {'0,0': '06851d5cad824175dfdfd58ea1c885e7980dca1b4b358ea92a16137a3c242daa',
                              '0,1': 'fe182c3061b8630f5153f90bf0e15bbcc4ae081a03a939418ef9f4c36cde642e',
                              '1,0': '149ba1f192a77c30a3b168a945c1c2d580c626ca1a475b38ea754e8b95da92ce',
                              '1,1': '1d9888deaeee43965b36ffbb7dfa8eca1f9308f69bf45acb948835d7ba2c1ff0'},
          'query_keys': {'0,0': 'e902f835fc36ec3190870cf4366a021c6dcd19df334ef1d908263ebe6b279742',
                         '0,1': 'e9c2ac526c97221f7cf0280081668f32c80a91d4f857ec8e2287ff9d86586d45',
                         '1,0': '6b0de75b56b81bf97e12fc9c7b6ecfb334bed96eed9e0bc37e165e423c8449d2',
                         '1,1': 'd851849d47b323c1c3a3fbbe2233cac09636cbafa1be88448378c39f76751c3b'}},
 (4, 9): {'shards': {'stripe-00000-rank-000.bin': '19a7041a0085bc527fed81110461c8d7faa9396b13d414ea0494c81d4ebe40c3',
                     'stripe-00000-rank-001.bin': 'b5990967e2f2f06b01d2c9fa53361cdb6adf446ab23fe3fc82caf20a25ec0921',
                     'stripe-00000-rank-002.bin': '3b4dd4bf720d645709e369b80bf6ea0aaf7538692ce1b887bc20e1e2b663b846',
                     'stripe-00000-rank-003.bin': '1dc1bc115e7e4389300ed266647d7c017ae9b6b64acc4d2c0b3ac42c54e8e789',
                     'stripe-00001-rank-000.bin': 'd3c1f920165b287664902e70f56d9f9ebb0b39035052d8ac97c0e11b77afee34',
                     'stripe-00001-rank-001.bin': 'c1c2f157cce65c861c3f52a9827716572f344b6dff39e6ce2d8f311d2de08d72',
                     'stripe-00001-rank-002.bin': 'f6e2dff23c708cf40aa9a4918d50b32d865d0fcd2e71b436110bacbf5fd4b207',
                     'stripe-00001-rank-003.bin': 'c5dec2c4a2ffa64b799c0a1ce5cf6380e56670dd6d5f52d02f2b75a6266ea317',
                     'stripe-00002-rank-000.bin': 'b5990967e2f2f06b01d2c9fa53361cdb6adf446ab23fe3fc82caf20a25ec0921',
                     'stripe-00002-rank-001.bin': 'dc54861605f89064a096acc982d96ada6d065eb62eacd1a1dc79156db2768e3f',
                     'stripe-00002-rank-002.bin': '1dc1bc115e7e4389300ed266647d7c017ae9b6b64acc4d2c0b3ac42c54e8e789',
                     'stripe-00002-rank-003.bin': 'ee1b29b60dc3f797cfaa88a06762bd1b05bdf643b2698c0cf9b8313b81751f3b'},
          'stripe_digests': ['9458f83844e2cdac6e309d30572f67464475e40300614347ee0f77da72eb8ac3',
                             '8eb3b88d555703f6e04036bd2ea5a63b1b5f2596b4e4bf77152085b4936bc945',
                             '81b29874d58526a06420bace02dd5efa8b13281a8ab2bd99881c5f6a3f2f57b9'],
          'all_vs_all_keys': {'0,0': 'b8b4cc3c84705e95c566d5d630071314a928551dbbedf75bb3d4008ac0473882',
                              '0,1': '022f5d49c5dc5d516c011b83e0c05173021c441a106aa43242e26ece557a2ac3',
                              '0,2': '85fcc5b75ae69d0c84ad323b4df51f7d5f7d28281bd00c0e401b01078ac81daf',
                              '1,0': '7e85f83daa1294800c767fb152c2ed0e2ea38bff3e72678c3fdbf0297d60a9c5',
                              '1,1': 'acfc0e6b5c6f2c326ee6a9ae7a56477a029853678ce4d78de7ace1e42f937752',
                              '1,2': '62b578696debf7350d78a412e562620248c17498cea9b02927966f3e97aa8d50',
                              '2,0': '3b9f81806374fe875e1e3c7cd9203415acf955133e23b09645e5c943b811b7f6',
                              '2,1': '3f091e2b4030d495f89334ad04c959ddf7d567ad3c69eedc27a9ed1bf470fac5',
                              '2,2': 'f36197ac41af4d887e89b28d896576a30c9c6afa90f26acb55cc00bf90c971ca'},
          'query_keys': {'0,0': '0dea3b5c0966fd2e20620b8d9b13a0413110a63fc43f8c85747204ccb476078f',
                         '0,1': '709920bddd265eac5728b58940adb36bebacb7e218a138cbfe52be45f064b901',
                         '0,2': '353676e6ec8558e0cbb7156156096fdb44a60af2be94e51fa7a80512b1b50850',
                         '1,0': '7169ad762490aef209541133c65933ca46216a8c3d2c0c81c0b163f930d95566',
                         '1,1': '50c0d4db390f153c5779bdcc68afd3a8066e26d957b7690c3ce5af8f36f7e82d',
                         '1,2': 'ecdb001ea3891d3a1a5c0898062439364797b528c69a80d5066767a39d50ee68',
                         '2,0': '78f05f96ac9e7cfd8de82e289426da540b1c648f72416b7a24a9249a60784750',
                         '2,1': '6cfd454536a2c88d7e3682142a4630a94d6013ccc41b2ce175cd8edc041edb7e',
                         '2,2': '939f326a60d179a4f2df31f9aa8f82f0afe45f0864495f3cffade99d5b4e8c2b'}}}


@pytest.mark.parametrize("nodes, blocks", CELLS)
def test_persisted_bytes_are_pinned(tmp_path, monkeypatch, nodes, blocks):
    assert persisted(tmp_path, nodes, blocks, monkeypatch) == EXPECTED[(nodes, blocks)]


if __name__ == "__main__":

    class _Patch:
        @staticmethod
        def setattr(target, name, value):
            setattr(target, name, value)

    captured = {}
    for cell in CELLS:
        with tempfile.TemporaryDirectory() as tmp:
            captured[cell] = persisted(Path(tmp), *cell, _Patch)
    print("EXPECTED = " + pprint.pformat(captured, width=96, sort_dicts=False))
