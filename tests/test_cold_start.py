"""Cold start: a run imports only the modules it executes.

Package ``__init__``s export their names lazily (``repro._lazy``), and
figure, app and scheme modules load where they are used.  Each import
check runs in a fresh interpreter, so modules another test imported do
not hide a regression.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: what `repro fio`, `repro stats`, `repro grid` and the fio benchmark load
FIO_IMPORTS = "import repro.experiments.common, repro.experiments.fig8_table5"
FIO_MODULE_BUDGET = 70


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with ``args`` and ``src`` on its path."""
    done = subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def _loaded_after(imports: str) -> list[str]:
    code = (f"{imports}\nimport json, sys\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))")
    return json.loads(_fresh("-c", code).stdout)


def test_fio_import_set_fits_its_budget():
    loaded = _loaded_after(FIO_IMPORTS)
    assert len(loaded) <= FIO_MODULE_BUDGET, loaded


def test_fio_import_set_skips_figures_apps_and_other_schemes():
    loaded = _loaded_after(FIO_IMPORTS)
    figures = [m for m in loaded if m.startswith("repro.experiments.")
               and m not in ("repro.experiments.common", "repro.experiments.fig8_table5")]
    unused = {"repro.workloads.tpcc", "repro.workloads.sysbench",
              "repro.workloads.trace", "repro.workloads.ycsb",
              "repro.baselines.spdk_vhost", "repro.baselines.vfio",
              "repro.checks.static"}
    assert figures == []
    assert [m for m in loaded if m.startswith(("repro.apps.", "repro.fleet."))] == []
    assert unused.isdisjoint(loaded), sorted(unused & set(loaded))


def test_version_loads_only_the_cli():
    done = _fresh("-X", "importtime", "-m", "repro", "--version")
    imported = {line.split("|")[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert {m for m in imported if m.startswith("repro")} == {"repro", "repro.cli"}


def test_run_case_imports_nothing_inside_the_call():
    """Every module a bmstore, passthrough or native run executes is
    loaded with its runner: none is compiled inside the ``run_case``
    call, which is the benchmark's timed phase."""
    code = """
import json, sys
from dataclasses import replace
from repro.experiments.common import run_case
from repro.sim.units import MS
from repro.workloads.fio import TABLE_IV_CASES
spec = replace(TABLE_IV_CASES["rand-r-128"], runtime_ns=1 * MS, ramp_ns=1 * MS)
added = {}
for scheme in ("bmstore", "passthrough", "native"):
    before = set(sys.modules)
    # checkers off, as the benchmark runs: armed checkers load on arming
    run_case(scheme, spec, seed=7, checks="off")
    added[scheme] = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
print(json.dumps(added))
"""
    added = json.loads(_fresh("-c", code).stdout)
    assert added == {"bmstore": [], "passthrough": [], "native": []}


def _packages() -> list[str]:
    root = os.path.join(SRC, "repro")
    found = []
    for dirpath, _dirs, files in os.walk(root):
        if "__init__.py" in files:
            rel = os.path.relpath(dirpath, SRC)
            found.append(rel.replace(os.sep, "."))
    return sorted(found)


@pytest.mark.parametrize("package", _packages())
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        getattr(module, name)
        assert name in listed, f"{package}.{name} missing from dir()"
