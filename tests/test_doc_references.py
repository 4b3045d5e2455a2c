"""Docs, CI and source may only name benchmark files, CLI flags and
``repro`` names that exist.

Benchmark scripts and their result files get deleted; prose that cites them
does not notice.  Every ``benchmarks/...py`` and ``BENCH...json`` path named
in the README, the CI workflow, the verify notes or anywhere in a source
file must resolve from the repository root.  Flags get deleted too: every
``--flag`` those documents and the example docstrings show on a ``lake
<command>`` command line must be an option of that sub-command in
``repro.cli.build_parser()``.  Names move too: every qualified ``repro.…``
name a docstring cross-references, one of those documents quotes, or
a README code block, the package quickstart or an example imports must
resolve, so each names the module that defines it.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

_REFERENCE = re.compile(r"benchmarks/[\w./-]*\.py|\bBENCH\w*\.json")

_DOCUMENTS = [
    ROOT / "README.md",
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]


def test_every_named_benchmark_file_exists():
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources, "src/ not found next to tests/"
    dangling = [
        f"{document.relative_to(ROOT)}: {reference}"
        for document in [*_DOCUMENTS, *sources]
        if document.exists()
        for reference in _REFERENCE.findall(document.read_text(encoding="utf-8"))
        if not (ROOT / reference).exists()
    ]
    assert not dangling, dangling


#: ``lake <word>`` and the rest of that command line: up to a backtick, a
#: ``#`` comment or the end of the line, unless the line ends in a backslash.
_COMMAND_LINE = re.compile(r"\blake (\w+)((?:[^`#\n\\]|\\\n)*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _shown_text(path: Path) -> str:
    """The part of *path* that shows command lines, one per line.

    Markdown wraps inline code across lines, so its fenced blocks are kept
    as they are and each inline-code span is joined onto one line; an
    example contributes its module docstring; anything else is read whole.
    """
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".py":
        return ast.get_docstring(ast.parse(text)) or ""
    if path.suffix != ".md":
        return text
    parts = text.split("```")
    spans = [span for prose in parts[0::2] for span in re.findall(r"`([^`]*)`", prose)]
    return "\n".join(parts[1::2] + [" ".join(span.split()) for span in spans])


def test_every_flag_shown_on_a_lake_command_line_exists():
    options = {
        name: set(sub._option_string_actions)
        for name, sub in _subcommands(_subcommands(build_parser())["lake"]).items()
    }
    documents = [d for d in _DOCUMENTS if d.exists()] + sorted((ROOT / "examples").glob("*.py"))
    shown = [
        (f"{document.relative_to(ROOT)}: lake {command} {flag}", flag in options[command])
        for document in documents
        for command, rest in _COMMAND_LINE.findall(_shown_text(document))
        if command in options
        for flag in _FLAG.findall(rest)
    ]
    assert len(shown) > 20, "the command-line pattern stopped matching the docs"
    unknown = [where for where, known in shown if not known]
    assert not unknown, unknown


#: A fully qualified Sphinx cross-reference: ``:role:`~repro.a.B.c``` or
#: ``:role:`title <repro.a.B.c>```.
_CROSS_REFERENCE = re.compile(
    r":(?:class|meth|func|attr|mod|data|exc):`(?:[^`<]*<)?~?(repro\.[\w.]+)>?`"
)


def _resolves(dotted: str) -> bool:
    """Whether *dotted* names something: the longest importable module
    prefix, then one ``getattr`` per remaining part."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def test_every_qualified_cross_reference_in_src_resolves():
    """A deleted method leaves prose that names it; Sphinx would only warn."""
    references = [
        (f"{path.relative_to(ROOT)}: {dotted}", dotted)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for dotted in _CROSS_REFERENCE.findall(path.read_text(encoding="utf-8"))
    ]
    assert len(references) > 100, "the cross-reference pattern stopped matching"
    dangling = [where for where, dotted in references if not _resolves(dotted)]
    assert not dangling, dangling


#: ``from repro... import a, b`` or ``from repro... import (a,\n b)``, also
#: on a doctest line.
_IMPORT = re.compile(
    r"^[ \t]*(?:>>> )?from (repro[\w.]*) import (\([^)]*\)|[^\n]*)", re.MULTILINE
)


def test_every_import_in_a_readme_block_or_the_quickstart_resolves():
    """A deleted or moved name leaves README examples that import it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = importlib.import_module("repro").__doc__
    imports = [
        f"{module}.{name.split(' as ')[0].strip()}"
        for block in [*readme.split("```")[1::2], quickstart]
        for module, names in _IMPORT.findall(block)
        for name in re.sub(r"#[^\n]*", "", names).strip("()").split(",")
        if name.strip()
    ]
    assert len(imports) >= 10, "the import pattern stopped matching README"
    dangling = [dotted for dotted in imports if not _resolves(dotted)]
    assert not dangling, dangling


#: An inline-code span that is a qualified name, or a call of one:
#: ```repro.a.b``` or ```repro.a.b(...)```.
_QUOTED_NAME = re.compile(r"`(repro(?:\.\w+)+)[`(]")


def test_every_repro_name_the_documents_quote_resolves():
    quoted = [
        (f"{document.relative_to(ROOT)}: {dotted}", dotted)
        for document in _DOCUMENTS
        if document.exists()
        for dotted in _QUOTED_NAME.findall(document.read_text(encoding="utf-8"))
    ]
    assert len(quoted) >= 10, "the quoted-name pattern stopped matching"
    dangling = [where for where, dotted in quoted if not _resolves(dotted)]
    assert not dangling, dangling


@pytest.mark.parametrize("example", sorted(path.name for path in (ROOT / "examples").glob("*.py")))
def test_every_repro_import_of_an_example_resolves(example):
    """Checked without running the example, so the slow ones are covered too."""
    tree = ast.parse((ROOT / "examples" / example).read_text(encoding="utf-8"))
    imported = [
        f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    ours = [dotted for dotted in imported if dotted.partition(".")[0] == "repro"]
    assert ours, "the example imports nothing from repro"
    assert [dotted for dotted in ours if not _resolves(dotted)] == []
