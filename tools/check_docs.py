#!/usr/bin/env python3
"""Link, anchor and name checker for the repository's markdown docs.

Stdlib-only, no network: validates that every relative link in every
tracked ``*.md`` file points at an existing file, and that every
``#fragment`` (same-file or cross-file) matches a real heading under
GitHub's slugification rules.  External ``http(s)://`` / ``mailto:``
targets are skipped.  Every backticked dotted name ``repro.…`` must
resolve statically, without importing anything, to a module under
``src/``, then optionally to a top-level def, class or assignment in
it, or a re-export in a package ``__init__``.  Schema ids
(``repro.bench.vN``) are not names; ``CHANGES.md`` and ``ISSUE.md``
(history and plans) may name code that no longer or not yet exists.

Usage::

    python tools/check_docs.py [root]

Exit status 0 when clean, 1 with one line per broken link otherwise.
Run by CI (.github/workflows/ci.yml) and wrapped as a unit test in
tests/test_docs_links.py so local pytest catches doc rot too.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

#: Directories never scanned for markdown (generated or vendored).
SKIP_DIRS = {".git", ".pytest_cache", "__pycache__", "node_modules", ".benchmarks"}

_LINK = re.compile(r"(?<!\!)\[[^\]^\[]*\]\(([^()\s]+(?:\([^()]*\))?)\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*$")
_FENCE = re.compile(r"^(```|~~~)")
_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")
_SCHEMA_ID = re.compile(r"repro\.bench\.v(\d+|N)")
#: Files whose backticked names are not checked (history and plans).
NAMES_UNCHECKED = {"CHANGES.md", "ISSUE.md"}


def _strip_fences(text: str) -> list[str]:
    """The file's lines with fenced code blocks blanked out."""
    lines = []
    in_fence = False
    for line in text.split("\n"):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            lines.append("")
            continue
        lines.append("" if in_fence else line)
    return lines


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line's text."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # drop code spans, keep text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: pathlib.Path) -> set[str]:
    """All anchor slugs a markdown file exposes (with -N dedup suffixes)."""
    slugs: set[str] = set()
    seen: dict[str, int] = {}
    for line in _strip_fences(path.read_text(encoding="utf-8")):
        match = _HEADING.match(line)
        if not match:
            continue
        base = github_slug(match.group(2))
        count = seen.get(base, 0)
        seen[base] = count + 1
        slugs.add(base if count == 0 else f"{base}-{count}")
    return slugs


def markdown_files(root: pathlib.Path) -> list[pathlib.Path]:
    files = []
    for path in sorted(root.rglob("*.md")):
        if not SKIP_DIRS.intersection(part for part in path.parts):
            files.append(path)
    return files


def _module_file(src: pathlib.Path, parts: list[str]) -> pathlib.Path | None:
    base = src.joinpath(*parts)
    for candidate in (base / "__init__.py", base.with_suffix(".py")):
        if candidate.is_file():
            return candidate
    return None


def _top_level_names(module: pathlib.Path) -> set[str]:
    """Names a module binds at top level (re-exports only in ``__init__``)."""
    names = set()
    for node in ast.parse(module.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom) and module.name == "__init__.py":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def resolves(name: str, src: pathlib.Path) -> bool:
    """Whether dotted ``name`` is a module under ``src`` or a name in one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module = _module_file(src, parts[:split])
        if module is not None:
            rest = parts[split:]
            return not rest or (
                len(rest) == 1 and rest[0] in _top_level_names(module)
            )
    return False


def check_file(path: pathlib.Path, root: pathlib.Path) -> list[str]:
    errors = []
    for lineno, line in enumerate(_strip_fences(path.read_text(encoding="utf-8")), 1):
        where = f"{path.relative_to(root)}:{lineno}"
        names = [] if path.name in NAMES_UNCHECKED else _NAME.findall(line)
        for name in names:
            if not _SCHEMA_ID.fullmatch(name) and not resolves(name, root / "src"):
                errors.append(f"{where}: unresolvable name {name!r}")
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, fragment = target.partition("#")
            dest = path if not base else (path.parent / base).resolve()
            if base and not dest.exists():
                errors.append(f"{where}: broken link target {target!r}")
                continue
            if fragment:
                if dest.suffix != ".md" or dest.is_dir():
                    continue  # anchors into non-markdown files aren't checked
                if fragment.lower() not in heading_slugs(dest):
                    errors.append(f"{where}: broken anchor {target!r}")
    return errors


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(__file__).parent.parent
    root = root.resolve()
    errors: list[str] = []
    files = markdown_files(root)
    for path in files:
        errors.extend(check_file(path, root))
    for error in errors:
        print(error)
    print(f"check_docs: {len(files)} markdown files, {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
