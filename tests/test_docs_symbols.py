"""The docs check resolves every dotted ``repro`` name in README.md and docs/*.md."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
check_symbols = runpy.run_path(str(ROOT / "scripts" / "check_docs_links.py"))["check_symbols"]


def test_documented_names_resolve():
    assert check_symbols(ROOT) == []


def test_a_misspelt_name_is_reported(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "api.md").write_text(
        "Kernel: `repro.bdd.manager.BddManager`.\n\n```\nrepro.bdd.manager.BDDManager\n```\n",
        encoding="utf-8",
    )
    (tmp_path / "README.md").write_text("See `repro.spec.no_such_module.thing`.\n", encoding="utf-8")
    assert check_symbols(tmp_path) == [
        "README.md:1: unknown name: repro.spec.no_such_module.thing",
        "docs/api.md:3: unknown name: repro.bdd.manager.BDDManager",
    ]
