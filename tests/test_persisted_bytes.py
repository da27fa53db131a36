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
          'all_vs_all_keys': {'0,0': '496bfdd1b6ceb5f98a4a46c98c959586dce86b0cd207f64c1cc73b492fe21fd4'},
          'query_keys': {'0,0': 'aa0caf62dfd96308aeba4738436bd8d6644b132725a5e688bbeec4c2a3ae0a9e'}},
 (1, 4): {'shards': {'stripe-00000-rank-000.bin': '6d43dcd6da1d82606ecf9f50170404e5b8ec94ce8075ef251da380c987cc8341',
                     'stripe-00001-rank-000.bin': '43d8a64efbe9c756a1bb5a92bd65ee22f36ba7c9afca39c3a8d404e809fa10b9'},
          'stripe_digests': ['a0c776b9abc2f9cee3139cc02620956b235e19abb8be53afee578d8ee4deed67',
                             '8d8813db39004b91251c2504f4334108f86abdc40d92affc7122c84dae078faa'],
          'all_vs_all_keys': {'0,0': 'e92b7a96a2d136922ba7921a19678f0e296d2b2685debc566d229386058576d4',
                              '0,1': '00c1e358809eddb1bad0f19a5335fc3baaaca874c595341ee9be6846472595ae',
                              '1,0': 'c432dfcec706698004bd08b3f8efcb011f9f12bd62eea54cd3f2334bdba21ad2',
                              '1,1': '66650e581b3d85a83326b20b6f60fcea48802da409cfe40899ac942094f90834'},
          'query_keys': {'0,0': 'b9fed8b322985e179cf328a894c9ec1c7e06e8657f9e5ee49a09acb8496726de',
                         '0,1': '7a530438d41512c94ef0e336de307a3f5d5904e6c0d26d702319e543616237b8',
                         '1,0': '4acaf78e9b7df42a7f4700a2137923b1c9c0fc198f7cd8053bcb7c731de408ea',
                         '1,1': '049dcd6a9f22d138dc183851778494f925c7b83b0ef87afae3d6961a0e0d305c'}},
 (4, 1): {'shards': {'stripe-00000-rank-000.bin': '6d4580ebf363da83f23e3b75b0f49b8e6bae4445803bfd82a1d91d93f99bcba7',
                     'stripe-00000-rank-001.bin': 'fb342b00d24df10b52d6ee846551bfb603a9bfab2b09499eb5a2009cbb993c6a',
                     'stripe-00000-rank-002.bin': 'eee19d121a12176d196efc1d0e9fe17a70fa5585637a2f35b84bbe074efea7ab',
                     'stripe-00000-rank-003.bin': '0ce02b099bf4d7ab891823494529c05e60daab1458810b563f0705cad4586aa7'},
          'stripe_digests': ['d4d1d1278d4c06292ca8469f20cdc79beebb34e05043ee988c825ae81876a1eb'],
          'all_vs_all_keys': {'0,0': '19583b7992e831eb0d24b29201c19ad944a542876c6b9181e8401148219c8972'},
          'query_keys': {'0,0': '8110645ddf510b7a666e56489905104f6b468f0489555137a6e1ee351c00e88f'}},
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
          'all_vs_all_keys': {'0,0': '5114b0b7c0db0c8d658dc6380bf4cef081568aa56d309c1c3d40ab1fe606354e',
                              '0,1': 'a6171adf8287e1737c8fd4ad58852c2eee787aa4c3141d88df6218f4467e5944',
                              '1,0': 'b8cb821186d04557db38430401c610c970825fbcf4bce5864006f1070377ebff',
                              '1,1': 'eaa18856fabba8d5b16c54ea06740bc60f939a78bb23807c7b001d55864d1a0e'},
          'query_keys': {'0,0': '30554b3b85e23d09168b3c261bdedd8d75fa6a4736977bcdc651f9ec34802138',
                         '0,1': '1bcc8dcfc758cd0ec3823bba6b69bfd6ae7a0460abf04812a146ad11ab73866c',
                         '1,0': '9cd89b9e7fcab450d6c04add74d59d6a8f572b9cc4c4a4a73b04222e28ff0c62',
                         '1,1': 'e1edaec29573af212baa48323caecbb7ede941ef42af8351b19a38f7358281b3'}},
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
          'all_vs_all_keys': {'0,0': '1c6141ae8c9185d904e1e326e780ac6f6a599a325c46ee0c90c56caf42636c8f',
                              '0,1': '69258d7959fb747fd17403de775887240cf57507096748598867359dca1c9256',
                              '0,2': 'fffd480ed3afa2bf50aa46f792ad2861d0c8d1d891330989986cf6919d14759c',
                              '1,0': 'bc90e1ae5516cced0bbf8a971d61bbaf5540c7bf7255ba97c1d20c5b053879e4',
                              '1,1': '1581a97741977104e8abe39faaa2b721ced2050642ed1909501d2c81ed6c908e',
                              '1,2': '438ad6026ee0144009b07d3118e156328f67b0b0dd64e2e4bfd82b244f87ceae',
                              '2,0': 'a939a919be8eb09a306ee7aeaf9d04f96f594e4251f6fdb83115bae3dd05d637',
                              '2,1': 'c7073200e69dac1acd1013cb6743f2b83eab1fa65522e24b7b291d92d783733d',
                              '2,2': 'd9734285bb942bda21f04a8429040f6ce294e25d162b0e39d3aee07fcb4580f7'},
          'query_keys': {'0,0': '83dee5f4b75639d81c66f9fbc848fb902a154e20d5b688ed30016aca05d0e475',
                         '0,1': '4d94c759b58801ed66d1ea01bf7e136d21a27a2c67dafc6b7f1ca798243f0a36',
                         '0,2': '872ac41dc9932244526243a6623d0fedccf6937f477e04fa942d92cb60d99766',
                         '1,0': 'b35206c8a94e22effc93c1929ec60d6f0270d064eba9294a139ead7a304aadb2',
                         '1,1': 'd04ca83f2a1e23101c66f8adb2e7e6071a8333e2b231df9e22a7761a92df1d00',
                         '1,2': 'a31da9adf64695bfb310c78af45e4e30e69ff963987d57b90c491d52469399f3',
                         '2,0': 'b225e103371b0cef6212339f150403a720b7c6b5f6ca2b38edad18938997e1ff',
                         '2,1': '19d9a488e82b2a8e178e79d6f31e62e5d807560bcd1da1294f2c10f8ffdde4bd',
                         '2,2': 'c0b25b366220ff96923d4be96c50f521b8349bc82f5a6e65712caed93ead644b'}}}


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
