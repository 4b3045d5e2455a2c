"""Every def under ``src/repro`` is referenced by the program, not only by tests.

A helper that only its own unit test calls is code a contributor reads and
keeps green for no workload.  This census parses ``src/``, ``benchmarks/``
and ``examples/`` and collects every name, attribute and import alias they
use, plus the string constants of :data:`TRACING_SHIM`, the one lakebench
file that imports the program and names the attributes it traces.  An import in a package ``__init__`` does
not count: a re-export is a second import path, not a caller.  Each
function, class and method under ``src/repro`` — dunders excepted — must be
used there by name; the name its own ``def`` or ``class`` statement binds
does not count.

The census is by name, so it is coarse: a method shares its name with every
other def of that name, and a name someone uses keeps them all.  It finds
the defs nothing can reach by name, not every def that nothing calls.

A def may stay uncalled only for a reason listed in :data:`KEEP`: it is a
reference implementation that tests compare the program against, a hook the
standard library calls, or a name lakebench reaches by string.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_REFERENCE = "reference implementation tests compare against: "
#: The lakebench file whose string constants count as uses: it shims the
#: program's attributes it traces by name.
TRACING_SHIM = ROOT / "benchmarks" / "lakebench" / "adapter.py"
_STDLIB_HOOK = "stdlib hook: "

#: ``(path under src/, qualified name) -> why it has no caller in the program``.
KEEP = {
    ("repro/discovery/search.py", "DiscoveryEngine"): _REFERENCE
    + "the class of the oracle below",
    ("repro/discovery/search.py", "DiscoveryEngine.discover"): _REFERENCE
    + "the oracle every lake ranking is checked against",
    ("repro/distributions/emd.py", "emd_general"): _REFERENCE
    + "the linear-program EMD the closed-form emd_1d must equal",
    ("repro/sketches/minhash.py", "minhash_signatures_scalar"): _REFERENCE
    + "the pure-Python MinHash the NumPy batch path must equal bit for bit",
    ("repro/serve/server.py", "_Handler.do_GET"): _STDLIB_HOOK
    + "BaseHTTPRequestHandler dispatches GET requests to it",
    ("repro/serve/server.py", "_Handler.do_POST"): _STDLIB_HOOK
    + "BaseHTTPRequestHandler dispatches POST requests to it",
    ("repro/serve/server.py", "_Handler.log_message"): _STDLIB_HOOK
    + "BaseHTTPRequestHandler logs every request through it",
    ("repro/serve/server.py", "_UnixHTTPServer.get_request"): _STDLIB_HOOK
    + "socketserver accepts each connection through it",
}


class _Census(ast.NodeVisitor):
    """The defs of one module, and the names it uses."""

    def __init__(self, collect_strings: bool, count_imports: bool) -> None:
        self.collect_strings = collect_strings
        self.count_imports = count_imports
        self.defs: list[tuple[str, str]] = []  # (qualified name, name)
        self.uses: set[str] = set()
        self._scope: list[str] = []

    def _define(self, node) -> None:
        self.defs.append((".".join([*self._scope, node.name]), node.name))
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Name(self, node: ast.Name) -> None:
        self.uses.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.uses.add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.count_imports:
            self.uses.update((node.module or "").split("."))
        self.visit_Import(node)

    def visit_Import(self, node) -> None:
        for alias in node.names if self.count_imports else ():
            self.uses.update(alias.name.split("."))

    def visit_Constant(self, node: ast.Constant) -> None:
        if self.collect_strings and isinstance(node.value, str):
            self.uses.add(node.value)


def uncalled_defs() -> set[tuple[str, str]]:
    """``(path under src/, qualified name)`` of every def nothing references."""
    defs: list[tuple[str, str, str]] = []
    uses: set[str] = set()
    for tree in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            census = _Census(
                collect_strings=path == TRACING_SHIM, count_imports=path.name != "__init__.py"
            )
            census.visit(ast.parse(path.read_text(encoding="utf-8")))
            if tree == "src":
                relative = path.relative_to(ROOT / "src").as_posix()
                defs += [(relative, *d) for d in census.defs]
            uses |= census.uses
    return {
        (relative, qualname)
        for relative, qualname, name in defs
        if not (name.startswith("__") and name.endswith("__")) and name not in uses
    }


def test_every_def_under_src_has_a_caller_outside_its_tests():
    uncalled = uncalled_defs()
    assert uncalled - KEEP.keys() == set(), "no caller in src/, benchmarks/ or examples/"
    assert KEEP.keys() - uncalled == set(), "a kept def is gone or has gained a caller"


def test_every_kept_def_gives_an_allowed_reason():
    allowed = (_REFERENCE, _STDLIB_HOOK, "lakebench reaches it by string: ")
    assert all(reason.startswith(allowed) for reason in KEEP.values())
