"""Resume by cache: a ``repro all`` stopped part-way loses at most the
driver in flight, and re-running it finishes with identical bytes."""

import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.runner import ResultCache

#: Registry order is fig04, fig05, table1: the run stops inside fig05.
IDS = "fig04,fig05,table1"
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: ``repro all`` whose fig05 driver stops the process, by Ctrl-C
#: (``sigint``), by a plain ``kill`` (``sigterm``) or by a kill no
#: handler sees (``sigkill``).
STOPPED_RUN = """
import os, signal, sys
from repro.__main__ import main
from repro.core import registry

def stop():
    if sys.argv[1] != "sigint":
        os.kill(os.getpid(), getattr(signal, sys.argv[1].upper()))
    raise KeyboardInterrupt

registry.get_experiment("fig05")  # register the real driver first
registry._REGISTRY["fig05"] = stop
sys.exit(main(sys.argv[2:]))
"""


def _files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("how", ["sigint", "sigterm", "sigkill"])
def test_stopped_run_resumes_from_the_cache_with_identical_bytes(
    tmp_path, capsys, how
):
    gold = tmp_path / "gold"
    assert main(["all", "--only", IDS, "--no-cache", "--out", str(gold)]) == 0

    cache_dir = tmp_path / "cache"
    args = ["all", "--only", IDS, "--cache-dir", str(cache_dir)]
    stopped = subprocess.run(
        [sys.executable, "-c", STOPPED_RUN, how, *args,
         "--out", str(tmp_path / "stopped")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    expected = 130 if how == "sigint" else -getattr(signal, how.upper())
    assert stopped.returncode == expected, stopped.stderr
    # fig04 finished before fig05 started, so it is already stored, and
    # nothing torn or half-written is left behind.
    assert ResultCache(cache_dir).entries() == 1
    assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0

    capsys.readouterr()
    resumed = tmp_path / "resumed"
    assert main(args + ["--out", str(resumed)]) == 0
    assert "1 hits, 2 misses" in capsys.readouterr().out
    assert _files(resumed) == _files(gold)


def test_partial_run_then_full_run_resumes_from_the_cache(tmp_path, capsys):
    gold = tmp_path / "gold"
    assert main(["all", "--only", IDS, "--no-cache", "--out", str(gold)]) == 0

    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(["all", "--only", "fig04", *cache,
                 "--out", str(tmp_path / "partial")]) == 0

    capsys.readouterr()
    resumed = tmp_path / "resumed"
    assert main(["all", "--only", IDS, *cache, "--out", str(resumed)]) == 0
    assert "1 hits, 2 misses" in capsys.readouterr().out
    assert _files(resumed) == _files(gold)
