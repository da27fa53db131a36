"""The bytes that outlive a run, pinned: index stripe files, their stamps, cache keys.

An index built by one version of the code is served by another, and a stage
cache written by one run is replayed by the next; both are trusted only
while their bytes and the keys over them stay what they were.  This test
builds a small seeded index and runs a small cached all-vs-all search and a
cached query search against that index at nodes {1, 4} × ``num_blocks``
{1, 4} (and 9, whose stripes cross grid chunks), and compares against
constants:

* the sha256 of every stripe file of the index (one per column stripe);
* every stripe digest the index manifest stamps (the sha256 of its file);
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
    """What one cell persists: stripe file hashes, stamped digests, cache keys."""
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


EXPECTED = {(1, 1): {'shards': {'stripe-00000.bin': 'bad3eaa4f860ad064d5dc5f4470afc95b22415a89f82268d5df47186429793e4'},
          'stripe_digests': ['bad3eaa4f860ad064d5dc5f4470afc95b22415a89f82268d5df47186429793e4'],
          'all_vs_all_keys': {'0,0': 'b6837f10e6ed379b9ef8241067c831f6daf32e375ae252d92a52702e2502343e'},
          'query_keys': {'0,0': '90d6cff07bcef992c6ca48c7ac86a94f1ebccc908cbd42f5c0b13d93bee1416b'}},
 (1, 4): {'shards': {'stripe-00000.bin': '32b0b833785a76145ea626188ee8f2984888f00557b24edec20d03ec64641fc2',
                     'stripe-00001.bin': '57f03309d93b74ab38ac02380efbc8611246f3d6150c3d220edcc313d5702cd2'},
          'stripe_digests': ['32b0b833785a76145ea626188ee8f2984888f00557b24edec20d03ec64641fc2',
                             '57f03309d93b74ab38ac02380efbc8611246f3d6150c3d220edcc313d5702cd2'],
          'all_vs_all_keys': {'0,0': 'f2f9743452430b1c0b1349e20cbb0ab47dcb7c45ab35c55447f6aff4c446cc77',
                              '0,1': '703fb8aa636cc760a04b4eaa75c7fd1b2eaae526ee8e8a092fda5cb02359ec31',
                              '1,0': 'c60c042f490dd31002d56dc01fa69b9e833bd47bb71a281eb02d81b7d3f5b7ce',
                              '1,1': '09eb6d770e46c5dffb948256dfbd4963b3e95fb3fa198d80c215c2790d8d0ca8'},
          'query_keys': {'0,0': '801030cf3672da15cd23d26412ba65fb6318640069b21d162f0207f01113f6f0',
                         '0,1': 'ddf094e34e1d363027c917535517c887cc3affced16f5bfdfa4796c835150595',
                         '1,0': 'ba92feb9ab1f7286f20980ce9efead34a8c5130680abed114d224c4df7c1e930',
                         '1,1': '1cbacb33eb2a0407c858ba823914d189c5605df814c1cdb9b1e4cdb0351a8cd7'}},
 (4, 1): {'shards': {'stripe-00000.bin': 'bad3eaa4f860ad064d5dc5f4470afc95b22415a89f82268d5df47186429793e4'},
          'stripe_digests': ['bad3eaa4f860ad064d5dc5f4470afc95b22415a89f82268d5df47186429793e4'],
          'all_vs_all_keys': {'0,0': '90137580b03d0ae74b861a070b852a5a7497e3a300a531cf1ee4f50e9a6839cb'},
          'query_keys': {'0,0': 'f044378844c14bf00e913de3f046f9866546c9fcb8c8566dfeaeb291a07f911d'}},
 (4, 4): {'shards': {'stripe-00000.bin': '32b0b833785a76145ea626188ee8f2984888f00557b24edec20d03ec64641fc2',
                     'stripe-00001.bin': '57f03309d93b74ab38ac02380efbc8611246f3d6150c3d220edcc313d5702cd2'},
          'stripe_digests': ['32b0b833785a76145ea626188ee8f2984888f00557b24edec20d03ec64641fc2',
                             '57f03309d93b74ab38ac02380efbc8611246f3d6150c3d220edcc313d5702cd2'],
          'all_vs_all_keys': {'0,0': '06851d5cad824175dfdfd58ea1c885e7980dca1b4b358ea92a16137a3c242daa',
                              '0,1': 'fe182c3061b8630f5153f90bf0e15bbcc4ae081a03a939418ef9f4c36cde642e',
                              '1,0': '149ba1f192a77c30a3b168a945c1c2d580c626ca1a475b38ea754e8b95da92ce',
                              '1,1': '1d9888deaeee43965b36ffbb7dfa8eca1f9308f69bf45acb948835d7ba2c1ff0'},
          'query_keys': {'0,0': 'e902f835fc36ec3190870cf4366a021c6dcd19df334ef1d908263ebe6b279742',
                         '0,1': 'e9c2ac526c97221f7cf0280081668f32c80a91d4f857ec8e2287ff9d86586d45',
                         '1,0': '6b0de75b56b81bf97e12fc9c7b6ecfb334bed96eed9e0bc37e165e423c8449d2',
                         '1,1': 'd851849d47b323c1c3a3fbbe2233cac09636cbafa1be88448378c39f76751c3b'}},
 (4, 9): {'shards': {'stripe-00000.bin': '0d6ef36dffdf8513ff04bf04e3bb7f814e5a2642cf3226456ff6a7c4efc75252',
                     'stripe-00001.bin': 'e08e82809460be2e6236e7aaa93aa5dfb253001465ebbdccce563b1fd1750ad5',
                     'stripe-00002.bin': '0f2da1ef07717f1d539cc68115de67c733f0daad2cb6711100125d8b4987bbb6'},
          'stripe_digests': ['0d6ef36dffdf8513ff04bf04e3bb7f814e5a2642cf3226456ff6a7c4efc75252',
                             'e08e82809460be2e6236e7aaa93aa5dfb253001465ebbdccce563b1fd1750ad5',
                             '0f2da1ef07717f1d539cc68115de67c733f0daad2cb6711100125d8b4987bbb6'],
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
