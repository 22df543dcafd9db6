"""Every module under ``src/repro/`` is imported by code that runs.

The walk reads the ``import`` and ``from`` statements of every Python
file under ``src/``, ``benchmarks/``, ``perfbench/`` and ``examples/``.
A non-package module that none of them names is code only its own tests
reach: it belongs next to those tests, or nowhere.  Tests do not count
as importers.  ``repro.cli`` is exempt: it is the ``dbgc`` console entry
point declared in pyproject.toml.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IMPORTERS = ("src", "benchmarks", "perfbench", "examples")
ENTRY_POINTS = {"repro.cli"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_names(path: Path) -> set[str]:
    """Every dotted name an import statement in ``path`` can load."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = _module_name(path).split(".")
                if path.name != "__init__.py":
                    package.pop()
                package = package[: len(package) - node.level + 1]
                base = ".".join(package + ([base] if base else []))
            names.add(base)
            # ``from package import module`` loads the module too.
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _orphans() -> list[str]:
    modules = {
        _module_name(path): path
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }
    imported: set[str] = set()
    for top in IMPORTERS:
        for path in (ROOT / top).rglob("*.py"):
            if "_work" in path.parts:
                continue  # perfbench scratch output, not code
            names = _imported_names(path)
            if path.is_relative_to(SRC):
                names.discard(_module_name(path))
            imported |= names
    return sorted(set(modules) - imported - ENTRY_POINTS)


def test_every_src_module_is_imported():
    assert _orphans() == []


def test_walk_sees_from_imports_of_modules(tmp_path):
    # ``from repro.system import pool`` names ``repro.system.pool``.
    source = tmp_path / "probe.py"
    source.write_text("from repro.system import pool\nimport repro.octree.octree\n")
    names = _imported_names(source)
    assert {"repro.system.pool", "repro.octree.octree"} <= names
