#!/usr/bin/env python3
"""Documentation checks: working links, and architecture coverage.

Two assertions, run by CI's ``docs`` job and by ``tests/test_docs.py``:

1. **Links resolve** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` points at a file that exists in the repository.  External
   links (``http(s)://``, ``mailto:``), pure fragments (``#section``) and
   links that escape the repository root (the CI badge's ``../../actions``
   URL, which GitHub resolves site-relative) are skipped.
2. **The architecture page is complete and current** — every Python
   module under ``src/repro/`` is mentioned in ``docs/architecture.md`` by
   its dotted name (``src/repro/core/blocks.py`` → ``repro.core.blocks``; a
   package's ``__init__.py`` → the package name itself).  Mentions must be
   exact: ``repro.core`` inside ``repro.core.blocks`` does not count, so
   every package needs a genuine mention of its own.  The other way round,
   every ``repro.<package>`` the page names must still exist under
   ``src/repro/``, so the map cannot go on describing code that has moved.

Stdlib only; exits non-zero with one line per failure.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
ARCHITECTURE = REPO_ROOT / "docs" / "architecture.md"
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: ``[text](target)`` — good enough for these hand-written pages (no
#: reference-style links, no angle-bracket targets).
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: The top-level package of a dotted ``repro.<package>...`` name.
PACKAGE_MENTION = re.compile(r"(?<![\w.])repro\.(\w+)")
SKIP_SCHEMES = ("http://", "https://", "mailto:")


def check_links(errors: List[str]) -> None:
    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"{doc.relative_to(REPO_ROOT)}: documentation file missing")
            continue
        text = doc.read_text(encoding="utf-8")
        for match in LINK.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.is_relative_to(REPO_ROOT):
                continue  # escapes the repo (e.g. the site-relative CI badge)
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO_ROOT)}: broken link -> {target}"
                )


def module_names() -> List[str]:
    names = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT.parent)  # repro/...
        if path.name == "__init__.py":
            parts = relative.parts[:-1]
        else:
            parts = relative.with_suffix("").parts
        names.append(".".join(parts))
    return names


def check_architecture_mentions(errors: List[str]) -> None:
    if not ARCHITECTURE.exists():
        errors.append("docs/architecture.md: missing")
        return
    text = ARCHITECTURE.read_text(encoding="utf-8")
    for name in module_names():
        # Exact mention: the dotted name must not continue on either side
        # (so the package `repro.core` is not satisfied by `repro.core.blocks`).
        pattern = re.compile(
            r"(?<![\w.])" + re.escape(name) + r"(?![\w.])"
        )
        if not pattern.search(text):
            errors.append(f"docs/architecture.md: module {name} is not mentioned")
    for package in sorted(set(PACKAGE_MENTION.findall(text))):
        if not ((SRC_ROOT / package).is_dir() or (SRC_ROOT / f"{package}.py").is_file()):
            errors.append(
                f"docs/architecture.md: names repro.{package}, which is not under src/repro"
            )


def main() -> int:
    errors: List[str] = []
    check_links(errors)
    check_architecture_mentions(errors)
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"{len(errors)} documentation check(s) failed", file=sys.stderr)
        return 1
    modules = len(module_names())
    print(f"docs ok: {len(DOC_FILES)} pages linked, {modules} modules covered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
