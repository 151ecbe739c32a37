"""Import-cost guard: numpy is the only numerics dependency.

Runs in a fresh interpreter so that modules other tests imported do not
count, and passes whether or not scipy is installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
