#!/usr/bin/env python
"""Docstring-coverage gate for selected packages (CI: the ``docs`` job).

Walks the given files/directories with ``ast`` (no imports, so it runs in
a bare interpreter) and requires a docstring on every public definition:

* the module itself;
* every public top-level function and class;
* every public method of a public class (``__init__`` and other dunders
  are exempt — the class docstring documents construction; private names
  and nested helpers are exempt too).

Exit status is the number of undocumented definitions, so CI fails on any
gap and the output names each one as ``path:line``.

Usage::

    python tools/check_docstrings.py src/repro/serving src/repro/llm
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Default coverage scope: the subsystems whose documentation this gate
#: protects.  Paths are relative to the repository root.
DEFAULT_TARGETS = (
    "src/repro/serving",
    "src/repro/observability",
    "src/repro/llm",
    "src/repro/fuzz",
    "src/repro/gateway",
    "src/repro/loadtest",
    "src/repro/sharding",
    "src/repro/strategies",
    "src/repro/sweeps",
    "src/repro/adapters",
)

#: Where to look for packages that exist but are *not* gated, so the gap
#: is logged instead of silently ignored.
PACKAGE_ROOT = "src/repro"


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_in_class(node: ast.ClassDef, path: Path) -> list[str]:
    problems = []
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_public(item.name):
            continue
        if ast.get_docstring(item) is None:
            problems.append(
                f"{path}:{item.lineno}: method "
                f"{node.name}.{item.name} lacks a docstring"
            )
    return problems


def check_file(path: Path) -> list[str]:
    """All docstring gaps in one source file, as ``path:line`` messages."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{path}:1: module lacks a docstring")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name) and ast.get_docstring(node) is None:
                problems.append(
                    f"{path}:{node.lineno}: function {node.name} "
                    f"lacks a docstring"
                )
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if ast.get_docstring(node) is None:
                problems.append(
                    f"{path}:{node.lineno}: class {node.name} "
                    f"lacks a docstring"
                )
            problems.extend(_missing_in_class(node, path))
    return problems


def _log_skipped(targets: list[Path]) -> None:
    """Name each package under ``src/repro`` that the gate does not cover.

    A silently-ignored package is how coverage rots: a new subsystem lands,
    nobody adds it to ``DEFAULT_TARGETS``, and the gate keeps passing.
    Logging the skips makes the gap visible in every CI run.
    """
    root = Path(PACKAGE_ROOT)
    if not root.is_dir():
        return
    covered = {target.resolve() for target in targets}
    skipped = sorted(
        child
        for child in root.iterdir()
        if child.is_dir()
        and (child / "__init__.py").exists()
        and child.resolve() not in covered
    )
    for child in skipped:
        print(f"skipped (not gated): {child}")


def main(argv: list[str]) -> int:
    """Check every ``.py`` file under the given targets; return gap count."""
    targets = [Path(arg) for arg in argv] or [Path(t) for t in DEFAULT_TARGETS]
    files: list[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        elif target.suffix == ".py":
            files.append(target)
        else:
            print(f"error: {target} is neither a directory nor a .py file")
            return 2
    _log_skipped(targets)
    problems = [problem for path in files for problem in check_file(path)]
    for problem in problems:
        print(problem)
    checked = len(files)
    if problems:
        print(f"\n{len(problems)} undocumented definitions in {checked} files")
    else:
        print(f"docstring coverage OK: {checked} files fully documented")
    return min(len(problems), 125)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
