"""The warm path: a fully cached ``repro all`` is a hash, 26 JSON reads
and the artifact writes, with each shape-check verdict stored beside
its result."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.core.registry import all_experiments, check_shape
from repro.core.validate import ShapeCheck
from repro.runner import CacheEntry, ResultCache
from repro.runner.cache import SCHEMA

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Run ``repro`` in a fresh interpreter; the last stdout line reports the
#: exit code and which numpy, ``repro.experiments``, ``dataclasses`` or
#: ``inspect`` modules it loaded. The last two cost about 10 ms of start-up
#: (``inspect`` pulls in ``ast``, ``dis`` and ``tokenize``); only the frozen
#: value types of the machine and model layers still need them.
FRESH = """
import json, sys
from repro.__main__ import main
rc = main(sys.argv[1:])
heavy = [m for m in sys.modules
         if m.split(".")[0] == "numpy" or m.startswith("repro.experiments")
         or m in ("dataclasses", "inspect")]
print(json.dumps({"rc": rc, "heavy": sorted(heavy)}))
"""


def _fresh(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    *printed, last = proc.stdout.splitlines()
    return json.loads(last), "\n".join(printed)


def _files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(pathlib.Path(out_dir).iterdir())}


def _entries(cache_dir):
    base = pathlib.Path(cache_dir) / SCHEMA
    return [
        CacheEntry.from_dict(json.loads(p.read_text()))
        for p in sorted(base.glob("*/*.json"))
    ]


@pytest.fixture(scope="module")
def full_cache(tmp_path_factory):
    """A cache filled by one cold ``repro all``."""
    cache_dir = tmp_path_factory.mktemp("warm") / "cache"
    out = cache_dir.parent / "cold"
    assert main(["all", "--cache-dir", str(cache_dir), "--out", str(out)]) == 0
    return cache_dir


def test_warm_repro_all_imports_no_numpy_and_no_driver(full_cache, tmp_path):
    out = tmp_path / "warm"
    report, printed = _fresh(
        "all", "--cache-dir", str(full_cache), "--out", str(out)
    )
    assert report == {"rc": 0, "heavy": []}
    assert f"{len(all_experiments())} hits, 0 misses" in printed
    assert _files(out) == _files(ROOT / "results")


def test_repro_list_imports_no_numpy():
    report, printed = _fresh("list")
    assert report == {"rc": 0, "heavy": []}
    assert "Global High Performance LINPACK (HPL)" in printed


def test_every_stored_verdict_equals_a_live_recheck(full_cache):
    entries = _entries(full_cache)
    assert sorted(e.exp_id for e in entries) == all_experiments()
    for entry in entries:
        assert entry.passed is check_shape(entry.exp_id, entry.result).passed


def test_failing_shape_check_is_stored_and_served_as_fail(
    tmp_path, monkeypatch, capsys
):
    import repro.experiments.fig05_dgemm as driver

    checked = []

    def failing(result):
        checked.append(result.exp_id)
        check = ShapeCheck("fig05")
        check.expect("forced failure", False)
        return check

    monkeypatch.setattr(driver, "shape_checks", failing)
    cache_dir = tmp_path / "cache"
    args = ["all", "--only", "fig05", "--cache-dir", str(cache_dir)]
    assert main(args + ["--out", str(tmp_path / "o1")]) == 1
    assert "[FAIL] fig05" in capsys.readouterr().out
    assert [e.passed for e in _entries(cache_dir)] == [False]

    assert main(args + ["--out", str(tmp_path / "o2")]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] fig05          cached" in out and "1 hits, 0 misses" in out
    assert checked == ["fig05"]  # the hit served the stored verdict

    # Every execution checks live: --force, and --no-cache.
    assert main(args + ["--force", "--out", str(tmp_path / "o3")]) == 1
    assert main(args + ["--no-cache", "--out", str(tmp_path / "o4")]) == 1
    assert checked == ["fig05"] * 3
