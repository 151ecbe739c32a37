"""Import-cost guards: numpy is the only numerics dependency, the
analytic drivers do not load even that, and a cold ``repro all`` runs
with numpy unimportable.

Each test runs in a fresh interpreter so that modules other tests
imported do not count; the scipy test passes whether or not scipy is
installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_importing_the_package_loads_no_scipy():
    code = (
        "import json, sys\n"
        "import repro.hpcc, repro.kernels, repro.apps\n"
        "from repro.core.registry import all_experiments, get_experiment\n"
        "drivers = [get_experiment(exp_id) for exp_id in all_experiments()]\n"
        "assert len(drivers) == 26\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout) == []


def test_analytic_drivers_load_no_numpy():
    """The 23 drivers that never run the DES, and a cold ``repro run``
    of one of them, import and execute without loading numpy."""
    code = (
        "import contextlib, importlib, io, json, sys\n"
        "from repro.core.registry import all_experiments, get_experiment\n"
        "des = {'ext_resilience', 'fig01', 'fig12_13'}\n"
        "ids = [e for e in all_experiments() if e not in des]\n"
        "assert len(ids) == 23\n"
        "for exp_id in ids:\n"
        "    driver = get_experiment(exp_id)\n"
        "    module = importlib.import_module(driver.__module__)\n"
        "    assert module.shape_checks(driver()).passed, exp_id\n"
        "import repro.__main__\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert repro.__main__.main(['run', 'fig17']) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'numpy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout) == []


def test_cold_repro_all_runs_without_numpy(tmp_path):
    """Every artifact regenerates, byte for byte, on an install where
    numpy cannot be imported: numpy is an optional extra."""
    out = tmp_path / "out"
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "import repro.__main__\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = repro.__main__.main(['all', '--no-cache', '--out', {str(out)!r}])\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    results = ROOT / "results"
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in results.iterdir())
    differ = [n for n in written if (out / n).read_bytes() != (results / n).read_bytes()]
    assert differ == []
