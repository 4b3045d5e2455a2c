"""A process imports only the matcher it runs.

The registry maps each matcher name to its defining module, and the package
``__init__`` modules import none of their heavy siblings, so the lake path
(every ``lake`` command, the serve daemon) loads neither scipy (the
Distribution-based ILP, the EMD oracle) nor networkx (Similarity Flooding's
graphs).  Each check runs in a fresh interpreter, because the test process
has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.csv_io import write_csv
from repro.data.table import Table
from repro.matchers import registry

SRC = Path(__file__).resolve().parent.parent / "src"

_HEAVY = ("scipy", "networkx")

#: Matcher modules the prepared-row codec imports for its record types
#: (SemProp's ``SemanticLink``): every process that opens a lake loads
#: them, whichever matcher it runs.
_CODEC_RECORDS = {
    "repro.matchers.semprop",
    "repro.matchers.semprop.links",
}

#: A ``sys.meta_path`` finder that refuses scipy and networkx, then the CLI.
_REFUSE_HEAVY_AND_RUN_CLI = """
import runpy, sys

class RefuseHeavy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {heavy!r}:
            raise ImportError(name + " is refused on the lake path")
        return None

sys.meta_path.insert(0, RefuseHeavy())
sys.argv = ["repro.cli", *sys.argv[1:]]
runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
"""


def _python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=300
    )


def _loaded_after(code: str) -> list[str]:
    """Every module in ``sys.modules`` once a fresh interpreter ran *code*."""
    result = _python("-c", f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _heavy(modules: list[str]) -> list[str]:
    """The heavy top-level packages among *modules*."""
    return sorted({module.partition(".")[0] for module in modules} & set(_HEAVY))


def _home(module: str) -> str:
    """The package a matcher lives in (or its module, for a one-file matcher)."""
    package, _, leaf = module.rpartition(".")
    return package if leaf == "matcher" else module


def test_the_cli_running_semprop_loads_no_scipy_networkx_or_other_matcher():
    modules = _loaded_after(
        "import repro.cli\n"
        "from repro.matchers.registry import create_matcher\n"
        "create_matcher('SemProp')"
    )
    assert _heavy(modules) == []
    assert [module for module in modules if module.startswith("repro.matchers.")] == [
        "repro.matchers.base",
        "repro.matchers.registry",
        "repro.matchers.semprop",
        "repro.matchers.semprop.links",  # codec record
        "repro.matchers.semprop.matcher",
        "repro.matchers.semprop.semantic",
    ]


def test_the_cli_loads_no_fabricator():
    """The parser names ``Scenario`` from :mod:`repro.fabrication.pairs`;
    the fabricator and what it builds with load only in the handlers."""
    modules = _loaded_after("import repro.cli")
    assert [m for m in modules if m.startswith("repro.fabrication")] == [
        "repro.fabrication",
        "repro.fabrication.pairs",
    ]


@pytest.mark.parametrize("name", sorted(registry._MATCHERS))
def test_matcher_class_loads_its_own_module_and_no_other_matcher(name):
    module = registry._MATCHERS[name][0]
    others = {_home(m) for m, _ in registry._MATCHERS.values()} - {_home(module)}
    modules = _loaded_after(
        f"import repro.cli\nfrom repro.matchers.registry import matcher_class\nmatcher_class({name!r})"
    )
    assert module in modules
    foreign = [
        loaded
        for loaded in modules
        if any(loaded == home or loaded.startswith(home + ".") for home in others)
        and loaded not in _CODEC_RECORDS
    ]
    assert foreign == []
    # Only Similarity Flooding's graphs load networkx on import; scipy waits
    # for the first linear program Distribution-based solves.
    assert _heavy(modules) == (["networkx"] if name == "similarityflooding" else [])


def _small_lake(root: Path) -> None:
    root.mkdir()
    (root / "lake").mkdir()
    write_csv(
        Table("cities", {"city": ["delft", "leiden", "gouda"], "pop": [1, 2, 3]}),
        root / "lake" / "cities.csv",
    )
    write_csv(
        Table("towns", {"town": ["delft", "gouda", "utrecht"], "size": [3, 4, 5]}),
        root / "lake" / "towns.csv",
    )
    write_csv(Table("query", {"place": ["delft", "gouda"], "n": [7, 8]}), root / "query.csv")


@pytest.mark.parametrize(
    "method, prepared, queried",
    [
        ("SemProp", "2 tables prepared with SemProp", "2 served from the prepared store"),
        # A schema-based matcher has nothing to prepare and reads only
        # sketches: its query opens no prepared store and names none.
        (
            "Cupid",
            "Cupid reads only the sketch: nothing to prepare",
            "(2 candidates reranked with Cupid)\n",
        ),
    ],
    ids=["SemProp", "Cupid"],
)
def test_the_lake_path_runs_with_scipy_and_networkx_refused(method, prepared, queried, tmp_path):
    """build → prepare → query and ``serve --help`` exit 0 with both
    dependencies unimportable, and print what an unrestricted run prints."""
    commands = [
        ["lake", "build", "lake", "--store", "lake.sketches"],
        ["lake", "prepare", method, "--store", "lake.sketches"],
        ["lake", "query", "query.csv", "--store", "lake.sketches", "--method", method],
        ["lake", "serve", "--help"],
    ]
    refused, free = tmp_path / "refused", tmp_path / "free"
    _small_lake(refused)
    _small_lake(free)
    script = _REFUSE_HEAVY_AND_RUN_CLI.format(heavy=_HEAVY)
    outputs = []
    for command in commands:
        blocked = _python("-c", script, *command, cwd=refused)
        plain = _python("-m", "repro.cli", *command, cwd=free)
        assert (blocked.returncode, blocked.stderr) == (0, ""), command
        assert (blocked.stdout, blocked.returncode) == (plain.stdout, plain.returncode), command
        outputs.append(blocked.stdout)
    assert prepared in outputs[1]
    assert queried in outputs[2]


#: Runs the CLI, then writes every loaded module name to the file named by
#: the first argument, whatever the exit status.
_RUN_CLI_AND_LIST_MODULES = """
import atexit, json, runpy, sys
out, *args = sys.argv[1:]
atexit.register(lambda: open(out, "w").write(json.dumps(sorted(sys.modules))))
sys.argv = ["repro.cli", *args]
runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
"""


def test_a_cupid_lake_loads_no_semprop_substrate(tmp_path):
    """``lake build`` then a Cupid ``lake query``: each process opens the
    lake (and so the prepared-row codec, with SemProp's link record) but
    loads neither the embeddings nor the ontology SemProp links with."""
    _small_lake(tmp_path / "lake_root")
    commands = [
        ["lake", "build", "lake", "--store", "lake.sketches"],
        ["lake", "query", "query.csv", "--store", "lake.sketches", "--method", "Cupid"],
    ]
    for index, command in enumerate(commands):
        out = tmp_path / f"modules{index}.json"
        result = _python("-c", _RUN_CLI_AND_LIST_MODULES, str(out), *command, cwd=tmp_path / "lake_root")
        assert result.returncode == 0, result.stderr
        modules = json.loads(out.read_text())
        assert "repro.discovery.prepared_codec" in modules
        assert "repro.matchers.semprop.links" in modules
        substrate = [
            m for m in modules if m.split(".")[:2] in (["repro", "embeddings"], ["repro", "ontology"])
        ]
        assert substrate == [], command


def test_the_refusing_finder_refuses():
    """The guard above is live: under it, importing scipy fails."""
    script = _REFUSE_HEAVY_AND_RUN_CLI.format(heavy=_HEAVY).replace(
        'runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)', "import scipy"
    )
    result = _python("-c", script)
    assert result.returncode == 1
    assert "scipy is refused on the lake path" in result.stderr
