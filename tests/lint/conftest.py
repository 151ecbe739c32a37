"""The simlint CLI runner shared by the lint tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[2]


@pytest.fixture
def run_cli():
    """``run_cli(*args)`` runs ``python -m repro.lint ARGS`` from the repo
    root and returns the completed process."""

    def run(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
        )

    return run
