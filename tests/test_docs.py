"""The documentation set stays truthful: links resolve, references import.

Runs the same checks CI's docs job runs (``tools/check_docs.py``) from
inside the test suite, so a rename that orphans a ``repro.x.y`` reference
(in the docs, or a docstring's Sphinx cross-reference) or a moved file that
breaks a relative link fails tier-1 locally too.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_checker()


def test_documentation_set_exists():
    for name in check_docs.DOC_FILES:
        assert (REPO_ROOT / name).exists(), f"missing documentation file: {name}"


@pytest.mark.parametrize("name", check_docs.DOC_FILES)
def test_links_resolve(name):
    errors = check_docs.check_links(REPO_ROOT / name)
    assert not errors, "\n".join(errors)


@pytest.mark.parametrize("name", check_docs.DOC_FILES)
def test_dotted_references_import(name):
    errors = check_docs.check_dotted_refs(REPO_ROOT / name)
    assert not errors, "\n".join(errors)


@pytest.mark.parametrize(
    "path", check_docs.source_files(), ids=lambda path: str(path.relative_to(REPO_ROOT))
)
def test_source_cross_references_resolve(path):
    errors = check_docs.check_cross_refs(path)
    assert not errors, "\n".join(errors)


def test_checker_catches_rot(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text(
        "See [missing](./nowhere.md) and `repro.not_a_module.at_all` "
        "plus `python -m repro.also_missing`.\n"
    )
    errors = check_docs.check_file(bad)
    assert len(errors) == 3
    assert any("nowhere.md" in e for e in errors)
    assert any("repro.not_a_module.at_all" in e for e in errors)
    assert any("repro.also_missing" in e for e in errors)
    source = tmp_path / "bad.py"
    source.write_text(
        '"""See :class:`~repro.distsparse.summa.SummaResult` and '
        ':meth:`repro.distsparse.summa.SummaResult.to_global`."""\n'
    )
    (error,) = check_docs.check_cross_refs(source)
    assert error.endswith("-> repro.distsparse.summa.SummaResult.to_global")


def test_readme_documents_both_workloads():
    text = (REPO_ROOT / "README.md").read_text()
    assert "all-vs-all" in text
    assert "repro.serve" in text
    assert "docs/serving.md" in text and "docs/architecture.md" in text
