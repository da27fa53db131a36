"""Package defaults and the hardened atomic writers in :mod:`repro.config`.

:data:`repro.config.DEFAULTS` seeds ``PastisParams``; ``atomic_write_bytes``
and ``atomic_write_text`` are what every persistent artifact (stage-cache
entries, index shards and manifests, run manifests) is written through, so
a failed write must never strand a ``.tmp`` file or clobber the target.
"""

from __future__ import annotations

import pytest

from repro import config
from repro.core.params import PastisParams


def test_params_default_follows_defaults_singleton():
    assert config.DEFAULTS == config.ReproConfig()
    assert PastisParams().cache_dir == config.DEFAULTS.cache_dir
    # the SpGEMM kernel is no configuration default (repro.sparse.kernels)
    assert not hasattr(config.DEFAULTS, "spgemm_backend")


def test_failed_atomic_text_write_leaves_no_tmp_litter(tmp_path, monkeypatch):
    """Regression: a failure between writing the temp file and renaming it
    (full disk, permission error) used to strand ``<name>.tmp`` next to the
    target; the hardened writer unlinks it before re-raising."""
    import os

    path = tmp_path / "manifest.json"
    assert config.atomic_write_text(path, '{"v": 2}\n') == path

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated rename failure"):
        config.atomic_write_text(path, '{"v": 9}\n')
    monkeypatch.undo()

    assert list(tmp_path.iterdir()) == [path]  # no .tmp stranded
    # the previous contents survived the failed overwrite intact
    assert path.read_text() == '{"v": 2}\n'


def test_atomic_write_bytes_round_trip_and_cleanup(tmp_path, monkeypatch):
    import os

    target = tmp_path / "blob.bin"
    assert config.atomic_write_bytes(target, b"payload") == target
    assert target.read_bytes() == b"payload"
    assert list(tmp_path.iterdir()) == [target]

    monkeypatch.setattr(os, "replace", lambda s, d: (_ for _ in ()).throw(OSError("boom")))
    with pytest.raises(OSError, match="boom"):
        config.atomic_write_bytes(target, b"new payload")
    assert target.read_bytes() == b"payload"
    assert list(tmp_path.iterdir()) == [target]


def test_removed_dispatch_threshold_is_not_settable():
    """The ``"auto"`` dispatch threshold and its calibration file are gone:
    neither the defaults nor the pipeline parameters accept it."""
    with pytest.raises(TypeError, match="auto_compression_threshold"):
        config.ReproConfig(auto_compression_threshold=2.0)
    with pytest.raises(TypeError, match="auto_compression_threshold"):
        PastisParams(auto_compression_threshold=2.0)
    for removed in ("load_calibration", "write_calibration", "calibrated_defaults",
                    "CALIBRATION_PATH", "CALIBRATABLE_FIELDS"):
        assert not hasattr(config, removed), removed
