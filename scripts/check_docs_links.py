#!/usr/bin/env python
"""Check every intra-repo markdown link (and anchor) in the docs.

Scans the repository's ``*.md`` files — the root documents, ``docs/``
and any other tracked markdown — and verifies that every relative link
``[text](target)`` resolves to a file in the repo, and that a
``#fragment`` on a markdown target names a real heading in that file
(GitHub slug rules: lowercase, punctuation stripped, spaces to dashes).

External links (``http://``/``https://``/``mailto:``) are not fetched —
this gate is about keeping the repo self-consistent offline, not about
the health of the wider web.  Exit 1 with one line per broken link.

Usage: python scripts/check_docs_links.py [root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List, Set

#: Inline markdown links; deliberately simple — no nested brackets in our docs.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*$")
_CODE_FENCE = re.compile(r"^\s*(```|~~~)")
#: Characters GitHub strips when slugifying a heading.
_SLUG_STRIP = re.compile(r"[^\w\- ]")
_SKIP_DIRS = {".git", ".campaign-results", "__pycache__", ".pytest_cache"}


def _markdown_files(root: Path) -> List[Path]:
    files = []
    for path in sorted(root.rglob("*.md")):
        if not _SKIP_DIRS.intersection(part for part in path.parts):
            files.append(path)
    return files


def _out_of_fence_lines(text: str):
    """Yield (lineno, line) outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def _slugify(heading: str) -> str:
    """GitHub's anchor slug for a heading line (close enough for ours)."""
    # Strip inline emphasis markers but keep word-internal underscores
    # (GitHub keeps them: `REPRO_SANITIZE` -> repro_sanitize).
    text = re.sub(r"[*`]", "", heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links: keep the text
    text = _SLUG_STRIP.sub("", text.lower())
    return text.strip().replace(" ", "-")


def _anchors(path: Path, cache: Dict[Path, Set[str]]) -> Set[str]:
    if path not in cache:
        slugs: Set[str] = set()
        counts: Dict[str, int] = {}
        for _, line in _out_of_fence_lines(path.read_text(encoding="utf-8")):
            match = _HEADING.match(line)
            if match:
                slug = _slugify(match.group(2))
                n = counts.get(slug, 0)
                counts[slug] = n + 1
                slugs.add(slug if n == 0 else f"{slug}-{n}")
        cache[path] = slugs
    return cache[path]


def check(root: Path) -> List[str]:
    problems: List[str] = []
    anchor_cache: Dict[Path, Set[str]] = {}
    for md in _markdown_files(root):
        text = md.read_text(encoding="utf-8")
        for lineno, line in _out_of_fence_lines(text):
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                where = f"{md.relative_to(root)}:{lineno}"
                path_part, _, fragment = target.partition("#")
                dest = md if not path_part else (md.parent / path_part).resolve()
                if not dest.exists():
                    problems.append(f"{where}: broken link: {target}")
                    continue
                if fragment:
                    if dest.suffix != ".md" or dest.is_dir():
                        continue  # anchors only checked inside markdown
                    if fragment not in _anchors(dest, anchor_cache):
                        problems.append(
                            f"{where}: broken anchor: {target} "
                            f"(no heading slug {fragment!r} in "
                            f"{dest.relative_to(root)})"
                        )
    return problems


def main(argv: List[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[1]
    problems = check(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    checked = len(_markdown_files(root))
    if problems:
        print(f"docs link check: {len(problems)} broken link(s) across "
              f"{checked} markdown file(s)", file=sys.stderr)
        return 1
    print(f"docs link check: OK ({checked} markdown files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
