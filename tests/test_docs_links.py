"""Wrap tools/check_docs.py so local pytest catches doc rot.

CI runs the script directly; this keeps the same guarantee in every
plain `pytest tests/` run, and pins the checker's own behaviour.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def checker():
    path = ROOT / "tools" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_docs_have_no_broken_links(checker):
    errors = []
    for path in checker.markdown_files(ROOT):
        errors.extend(checker.check_file(path, ROOT))
    assert not errors, "\n".join(errors)


def test_repo_docs_are_scanned(checker):
    names = {p.name for p in checker.markdown_files(ROOT)}
    assert {"README.md", "DESIGN.md", "PAPER_MAP.md", "OBSERVABILITY.md"} <= names


class TestCheckerBehaviour:
    def test_detects_all_break_modes(self, checker, tmp_path):
        (tmp_path / "b.md").write_text("# Other\n\n## Real Section\n")
        (tmp_path / "a.md").write_text(
            "# One\n"
            "[ok](b.md) [ok2](b.md#real-section) [self](#one)\n"
            "[bad](gone.md) [badanchor](b.md#nope) [badself](#zzz)\n"
            "```\n[fenced](alsogone.md)\n```\n"
            "[ext](https://example.com/x#y)\n"
        )
        errors = checker.check_file(tmp_path / "a.md", tmp_path)
        assert len(errors) == 3
        assert any("gone.md" in e for e in errors)
        assert any("b.md#nope" in e for e in errors)
        assert any("#zzz" in e for e in errors)

    def test_detects_unresolvable_names(self, checker, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("from repro.mod import real as exported\n")
        (pkg / "mod.py").write_text(
            "import os\nLIMIT: int = 3\ndef real():\n    inner = 1\n"
        )
        (tmp_path / "a.md").write_text(
            "`repro` `repro.mod` `repro.mod.real` `repro.mod.LIMIT` "
            "`repro.exported` `repro.bench.v1` `repro.bench.vN`\n"
            "`repro.mod.gone` `repro.nomod` `repro.mod.os` `repro.mod.real.inner`\n"
            "```\n`repro.fenced`\n```\n"
        )
        errors = checker.check_file(tmp_path / "a.md", tmp_path)
        assert len(errors) == 4
        for name in ("mod.gone", "nomod", "mod.os", "mod.real.inner"):
            assert any(f"'repro.{name}'" in e for e in errors)
        (tmp_path / "CHANGES.md").write_text("`repro.gone`\n")
        assert checker.check_file(tmp_path / "CHANGES.md", tmp_path) == []

    def test_github_slugs(self, checker):
        assert checker.github_slug("3. Metric reference") == "3-metric-reference"
        assert (
            checker.github_slug("Fault model (repro.faults)")
            == "fault-model-reprofaults"
        )
        assert (
            checker.github_slug("6. `BENCH_*.json` — machine-readable benchmark results")
            == "6-bench_json--machine-readable-benchmark-results"
        )

    def test_duplicate_headings_get_suffixes(self, checker, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("# Same\n\n# Same\n")
        assert checker.heading_slugs(doc) == {"same", "same-1"}
