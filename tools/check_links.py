#!/usr/bin/env python3
"""Check relative markdown links (stdlib only; used by the CI docs job).

Scans the given markdown files (or the repo's documentation set by
default) for inline links and images, and verifies that every *relative*
target exists on disk. A ``#fragment`` on a link to a markdown file, or a
bare ``#anchor`` link, must match the GitHub-style slug of one of that
file's ATX (``#``) headings. External schemes (http/https/mailto) and
bare autolinks are ignored, and so are links and headings inside fenced
code blocks.

Exit status: 0 if every relative link resolves, 1 otherwise (each broken
link is reported as ``file:line: broken link -> target``).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

DEFAULT_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/architecture.md",
    "docs/models.md",
    "docs/fidelity.md",
)

#: inline links/images: [text](target) / ![alt](target); stops at the
#: first unescaped ')' so titles ("...") are carried into the target and
#: stripped below.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

EXTERNAL = ("http://", "https://", "mailto:", "ftp://")

#: ATX heading: up to three spaces, 1-6 '#', then the heading text.
HEADING_RE = re.compile(r"^ {0,3}#{1,6}[ \t]+(.*?)(?:[ \t]+#+)?[ \t]*$")
#: Inline link or image inside heading text: only its text is rendered.
INLINE_LINK_RE = re.compile(r"!?\[([^\]]*)\]\([^)]*\)")


def iter_lines(text):
    """Yield (line_number, line) for every line outside fenced code."""
    in_fence = False
    for number, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith(("```", "~~~")):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield number, line


def iter_links(text):
    """Yield (line_number, target) for every inline link outside fences."""
    for number, line in iter_lines(text):
        for match in LINK_RE.finditer(line):
            yield number, match.group(1)


def slugify(heading):
    """GitHub's anchor for a heading: lowercase, punctuation dropped,
    each space a hyphen."""
    text = INLINE_LINK_RE.sub(r"\1", heading).strip().lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def anchors(text):
    """Every heading anchor of a markdown document; repeated headings get
    ``-1``, ``-2``, ... suffixes as on GitHub."""
    seen = {}
    found = set()
    for _, line in iter_lines(text):
        match = HEADING_RE.match(line)
        if not match:
            continue
        slug = slugify(match.group(1))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        found.add(f"{slug}-{count}" if count else slug)
    return found


def check_file(path: Path, repo_root: Path):
    """Return a list of (line, target) broken relative links in ``path``."""
    broken = []
    text = path.read_text(encoding="utf-8")
    for line, target in iter_links(text):
        if target.startswith(EXTERNAL):
            continue
        resolved, _, fragment = target.partition("#")
        if not resolved:
            candidate = path
        elif resolved.startswith("/"):
            candidate = repo_root / resolved.lstrip("/")
        else:
            candidate = path.parent / resolved
        if not candidate.exists():
            broken.append((line, target))
        elif fragment and candidate.suffix == ".md" and fragment not in anchors(
            candidate.read_text(encoding="utf-8")
        ):
            broken.append((line, target))
    return broken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        help=f"markdown files to check (default: {', '.join(DEFAULT_FILES)})",
    )
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    names = args.files or [
        name for name in DEFAULT_FILES if (repo_root / name).is_file()
    ]
    failures = 0
    checked = 0
    for name in names:
        path = Path(name)
        if not path.is_absolute():
            path = repo_root / name
        if not path.is_file():
            print(f"{name}: no such file", file=sys.stderr)
            failures += 1
            continue
        checked += 1
        for line, target in check_file(path, repo_root):
            print(f"{name}:{line}: broken link -> {target}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"check_links: {failures} problem(s)", file=sys.stderr)
        return 1
    print(f"check_links: {checked} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
