"""The examples that run in seconds run to completion.

``examples/`` count as callers for ``tests/test_callers.py`` and
``tests/test_surface.py``, and the distribution examples assert what they
demonstrate (the delta pull's blob counts, the chaos pull's convergence), so
a change that breaks one of them fails here.  Each runs in a fresh
interpreter, as a reader would run it.  ``fabrication_study.py`` and
``matcher_comparison.py`` sweep every matcher over many pairs and take far
longer; ``tests/test_doc_references.py`` checks that their imports resolve.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "replicated_lake.py",
        "chaos_pull.py",
        "quickstart.py",
        "dataset_discovery_pipeline.py",
        "serve_daemon.py",
    ],
)
def test_example_exits_0(script, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), path]))}
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
