"""Every module-level import under ``src/repro`` is used by its module.

An import that its module never names is dead weight: it costs start-up
time (``import repro.cli`` pays for every module it pulls in) and tells a
reader about a dependency that is not there.  A name counts as used when
the module's code refers to it (a name, or the base of an attribute), when
a quoted annotation names it, or when ``__all__`` lists it (a re-export).

A package ``__init__`` imports nothing from ``repro`` (the two exceptions
are :data:`_LOUD_PACKAGES`), so each name has one import path, the module
that defines it, and importing one module of a package does not load the
rest (scipy, networkx, every matcher).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level ``import`` / ``from ... import`` binds."""
    names = []
    for alias in node.names:
        if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        names.append(alias.asname or alias.name.split(".")[0])
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in tree.body:
        targets = [t for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if any(target.id == "__all__" for target in targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    return [
        name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
        if name not in used
    ]


def test_no_module_imports_a_name_it_never_uses():
    found = {
        str(path.relative_to(_SRC.parent)): names
        for path in sorted(_SRC.rglob("*.py"))
        if (names := unused_imports(path))
    }
    assert found == {}


#: The packages whose ``__init__`` imports from ``repro``, and why.
_LOUD_PACKAGES = {
    "cli": "the package is the CLI: its __init__ holds main() and the parser",
    "telemetry": "lakebench calls telemetry.TelemetryRecorder and "
    "telemetry.set_default_recorder through the package",
}

_PACKAGES = sorted("/".join(path.parent.relative_to(_SRC).parts) for path in _SRC.rglob("__init__.py"))


def _init(package: str) -> ast.Module:
    return ast.parse((_SRC / package / "__init__.py").read_text(encoding="utf-8"))


def _repro_imports(tree: ast.Module) -> list[str]:
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in ([node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names])
    ]
    return [name for name in imported if name.partition(".")[0] == "repro"]


@pytest.mark.parametrize("package", [p for p in _PACKAGES if p not in _LOUD_PACKAGES])
def test_quiet_package_inits_import_nothing_from_the_package(package):
    """No import, and no module ``__getattr__`` that imports on demand."""
    tree = _init(package)
    assert _repro_imports(tree) == []
    assert [node.name for node in tree.body if isinstance(node, ast.FunctionDef)] == []


@pytest.mark.parametrize("package", sorted(_LOUD_PACKAGES))
def test_each_loud_package_still_imports_from_repro(package):
    """An exception whose package went quiet is a stale exception."""
    assert _repro_imports(_init(package)) != []


def test_the_scan_sees_quoted_annotations_and_all(tmp_path):
    """The scan's own edges: a quoted annotation and ``__all__`` use a name,
    an import named only inside a string that is not an annotation does not."""
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from collections import OrderedDict\n"
        "from typing import Optional\n"
        "from json import dumps as encode\n"
        "__all__ = ['encode']\n"
        "x: 'OrderedDict[str, int]' = {}\n"
        "doc = 'Optional'\n"
    )
    assert unused_imports(module) == ["os", "Optional"]
