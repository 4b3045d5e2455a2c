"""Docs, CI and source may only name benchmark files that exist.

Benchmark scripts and their result files get deleted; prose that cites them
does not notice.  Every ``benchmarks/...py`` and ``BENCH...json`` path named
in the README, the CI workflow, the verify notes or anywhere in a source
file must resolve from the repository root.
"""

from __future__ import annotations

import re
from pathlib import Path

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
