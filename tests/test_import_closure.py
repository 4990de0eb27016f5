"""Importing a module costs only that module's own dependency closure.

Every command, pool task and benchmark probe starts a fresh interpreter, so
what a module drags in on import is paid on every start. Package
``__init__`` modules therefore import none of their submodules (names are
imported from the module that defines them), and each check below imports
one entry point in a fresh interpreter and diffs ``sys.modules``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prints the ``repro`` modules loaded after running the snippet it follows.
_REPORT = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
)


def _loaded(snippet):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", snippet + _REPORT],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _under(modules, packages):
    return [
        module for module in modules
        if any(module == pkg or module.startswith(pkg + ".") for pkg in packages)
    ]


_LIST = (
    "import contextlib, io, runpy, sys\n"
    "sys.argv = ['repro', 'list']\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    try:\n"
    "        runpy.run_module('repro', run_name='__main__')\n"
    "    except SystemExit:\n"
    "        pass\n"
)


@pytest.mark.parametrize(
    "snippet, forbidden",
    [
        ("import repro", ["repro.sim", "repro.mac80211", "repro.core", "repro.planner"]),
        (
            "import repro.obs.runtime",
            ["repro.obs.compare", "repro.obs.history", "repro.obs.profile",
             "repro.obs.slo", "repro.obs.dash"],
        ),
        (
            "import repro.runner.cache",
            ["repro.campaign", "repro.runner.core", "repro.planner"],
        ),
        (
            "import repro.experiments.fig06_traffic",
            ["repro.packets", "repro.planner", "repro.harvester", "repro.rf",
             "repro.sensors", "repro.campaign"],
        ),
        (
            _LIST,
            ["repro.sim", "repro.mac80211", "repro.core", "repro.campaign",
             "repro.obs.compare", "repro.obs.history", "repro.faults"],
        ),
    ],
    ids=["repro", "obs.runtime", "runner.cache", "fig06_traffic", "repro-list"],
)
def test_import_loads_only_its_closure(snippet, forbidden):
    loaded = _loaded(snippet)
    assert loaded, "the probe reported no repro module at all"
    assert _under(loaded, forbidden) == []


def test_package_inits_import_no_submodule():
    """The rule the closure tests rest on, checked on every package.

    Only module-level statements count: an import inside a function (the
    quickstart's) runs when it is called, not when the package loads.
    """
    offenders = []
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC).parts)
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # A relative import always names a sibling.
                names = [f"{package}." if node.level else node.module]
            else:
                continue
            offenders += [
                f"{init.relative_to(SRC)}: {name}" for name in names
                if name == package or name.startswith(package + ".")
            ]
    assert offenders == []
