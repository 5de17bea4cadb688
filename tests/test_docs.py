"""Documentation stays true: links resolve, architecture covers every module.

Tier-1 wrapper around ``tools/check_docs.py`` (CI also runs the script
directly in its ``docs`` job) so a PR that adds a module without placing it
in ``docs/architecture.md``, or moves a file a doc links to, fails fast.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_markdown_links_resolve():
    errors = []
    check_docs.check_links(errors)
    assert errors == []


def test_architecture_mentions_every_module():
    errors = []
    check_docs.check_architecture_mentions(errors)
    assert errors == []


def test_module_inventory_is_nonempty_and_dotted():
    names = check_docs.module_names()
    assert "repro" in names
    assert "repro.serving.pool" in names
    assert "repro.cli" in names
    assert all(name == "repro" or name.startswith("repro.") for name in names)


def test_checker_spots_a_missing_module(tmp_path, monkeypatch):
    """The coverage check is exact: a package mention does not excuse its
    modules, and vice versa."""
    src = tmp_path / "src" / "repro" / "newpkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text('"""pkg"""\n')
    (src / "widget.py").write_text('"""mod"""\n')
    docs = tmp_path / "docs"
    docs.mkdir()
    # Mentions the module but not the package: exactly one failure.
    (docs / "architecture.md").write_text("Only repro.newpkg.widget here.\n")
    monkeypatch.setattr(check_docs, "SRC_ROOT", tmp_path / "src" / "repro")
    monkeypatch.setattr(check_docs, "ARCHITECTURE", docs / "architecture.md")
    errors = []
    check_docs.check_architecture_mentions(errors)
    assert errors == ["docs/architecture.md: module repro.newpkg is not mentioned"]


def test_checker_spots_a_package_that_has_moved(tmp_path, monkeypatch):
    """The map is checked the other way round too: a package it names must
    still exist under src/repro."""
    src = tmp_path / "src" / "repro"
    (src / "kept").mkdir(parents=True)
    (src / "__init__.py").write_text('"""root"""\n')
    (src / "kept" / "__init__.py").write_text('"""pkg"""\n')
    (src / "tool.py").write_text('"""mod"""\n')
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "architecture.md").write_text(
        "The package repro, repro.kept (see repro.kept.Widget), repro.tool "
        "and the moved repro.gone.module.\n"
    )
    monkeypatch.setattr(check_docs, "SRC_ROOT", src)
    monkeypatch.setattr(check_docs, "ARCHITECTURE", docs / "architecture.md")
    errors = []
    check_docs.check_architecture_mentions(errors)
    assert errors == [
        "docs/architecture.md: names repro.gone, which is not under src/repro"
    ]
