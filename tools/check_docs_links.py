#!/usr/bin/env python
"""Validate relative Markdown links (and their anchors) and module names in
the docs.

Walks the repo's Markdown surface — ``README.md``, the top-level ``*.md``
companions and everything under ``docs/`` — and checks every inline
``[text](target)`` link:

* external links (``http(s)://``, ``mailto:``) are skipped — CI must not
  depend on the network;
* relative targets must exist on disk (files or directories);
* ``#anchor`` fragments pointing into a Markdown file must match a heading
  in that file, using GitHub's slug rules (lowercased, punctuation dropped,
  spaces to hyphens).

In the files that describe the code as it is (``docs/`` and
``DESCRIBE_CODE``) it also resolves every ``repro.*`` dotted name in an
inline code span against the files under ``src/``, without importing
them: the longest prefix that is a module (``a/b.py`` or
``a/b/__init__.py``) must be followed by nothing or by a name that module
defines or imports.  The other top-level files (the change log, the
roadmap, the paper notes) name deleted or planned code on purpose.

Exit status is the number of broken links and names (0 = clean), so CI
can run it bare:

    python tools/check_docs_links.py
    python tools/check_docs_links.py docs/ README.md   # explicit roots
"""
from __future__ import annotations

import ast
import functools
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

# inline links/images: [text](target) — target taken up to the first
# unescaped ')' or ' ' (drops optional "title" parts)
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
FENCE_RE = re.compile(r"^(```|~~~)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
MODULE_NAME_RE = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
#: the top-level files whose ``repro.*`` names must resolve
DESCRIBE_CODE = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}


def rel(path: Path) -> str:
    """Repo-relative display path (absolute when outside the repo)."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def github_slug(heading: str) -> str:
    """GitHub's heading→anchor slug: drop code spans' backticks, lowercase,
    strip everything but word characters/spaces/hyphens, spaces→hyphens."""
    text = heading.strip().lower().replace("`", "")
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(md_file: Path) -> set[str]:
    """All GitHub anchors a Markdown file exposes (duplicate headings get
    ``-1``, ``-2``, … suffixes, as on GitHub)."""
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in md_file.read_text(encoding="utf-8").splitlines():
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def iter_lines(md_file: Path):
    """Yield ``(line_number, line)`` for every line outside code fences."""
    in_fence = False
    for lineno, line in enumerate(
            md_file.read_text(encoding="utf-8").splitlines(), start=1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def iter_links(md_file: Path):
    """Yield ``(line_number, target)`` for every inline link outside code
    fences."""
    for lineno, line in iter_lines(md_file):
        for m in LINK_RE.finditer(line):
            yield lineno, m.group(1)


def iter_module_names(md_file: Path):
    """Yield ``(line_number, name)`` for every ``repro.*`` dotted name in
    an inline code span outside code fences."""
    for lineno, line in iter_lines(md_file):
        for span in CODE_SPAN_RE.finditer(line):
            for name in MODULE_NAME_RE.findall(span.group(1)):
                yield lineno, name


def module_file(dotted: str) -> Path | None:
    """The source file of module ``dotted`` under ``src/``, if any."""
    base = SRC_ROOT.joinpath(*dotted.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def bound_names(body: list) -> set[str]:
    """Names a block of statements binds in its own scope: functions,
    classes, assignment targets and imports, through ``if``/``try``/
    ``with`` blocks but not into nested scopes."""
    names: set[str] = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                names |= bound_names(getattr(node, field, []))
    return names


@functools.cache
def module_names(path: Path) -> set[str]:
    """The names module ``path`` defines or imports at top level."""
    return bound_names(ast.parse(path.read_text(encoding="utf-8")).body)


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a module under ``src/``, or a module followed
    by a name it defines or imports (attributes past that are not
    checked)."""
    parts = dotted.split(".")
    for n in range(len(parts), 0, -1):
        path = module_file(".".join(parts[:n]))
        if path is not None:
            return n == len(parts) or parts[n] in module_names(path)
    return False


def check_file(md_file: Path) -> list[str]:
    errors: list[str] = []
    if md_file.parent != REPO_ROOT or md_file.name in DESCRIBE_CODE:
        for lineno, name in iter_module_names(md_file):
            if not resolves(name):
                errors.append(f"{rel(md_file)}:{lineno}: "
                              f"unknown module name {name!r}")
    for lineno, target in iter_links(md_file):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        if path_part:
            resolved = (md_file.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(f"{rel(md_file)}:{lineno}: "
                              f"broken link target {target!r}")
                continue
        else:
            resolved = md_file  # pure-fragment link: '#section'
        if anchor and resolved.is_file() and resolved.suffix == ".md":
            if anchor not in heading_anchors(resolved):
                errors.append(f"{rel(md_file)}:{lineno}: "
                              f"anchor #{anchor} not found in "
                              f"{rel(resolved)}")
    return errors


def collect_roots(argv: list[str]) -> list[Path]:
    if argv:
        return [(REPO_ROOT / a).resolve() if not Path(a).is_absolute()
                else Path(a) for a in argv]
    roots = [REPO_ROOT / "docs"]
    roots.extend(sorted(REPO_ROOT.glob("*.md")))
    return roots


def main(argv: list[str]) -> int:
    files: list[Path] = []
    for root in collect_roots(argv):
        if root.is_dir():
            files.extend(sorted(root.rglob("*.md")))
        elif root.suffix == ".md":
            files.append(root)
        else:
            print(f"not a Markdown file or directory: {root}", file=sys.stderr)
            return 1
    all_errors: list[str] = []
    for md_file in files:
        all_errors.extend(check_file(md_file))
    for err in all_errors:
        print(err, file=sys.stderr)
    print(f"checked {len(files)} files, "
          f"{len(all_errors)} broken links or names")
    return min(len(all_errors), 125)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
