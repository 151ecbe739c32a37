"""Perf-trajectory keeper: benchmarks/compare.py update/compare loop."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "compare.py"


def _load_module():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _records(values):
    """name → baseline record with the given best_s values."""
    return {name: {"best_s": v} for name, v in values.items()}


def test_checked_in_baseline_is_loadable_and_complete():
    mod = _load_module()
    baseline = mod.load_baseline(REPO / "BENCH_simulator.json")
    assert set(baseline) == set(mod.BENCHMARKS)
    assert all(baseline[name]["best_s"] > 0 for name in mod.BENCHMARKS)


def test_schema1_baseline_still_loads(tmp_path):
    mod = _load_module()
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({
        "schema": 1,
        "benchmarks": {"event_loop_100k": {"best_s": 0.25}},
    }))
    baseline = mod.load_baseline(legacy)
    assert baseline == {"event_loop_100k": {"best_s": 0.25}}


def test_compare_verdicts():
    mod = _load_module()
    names = sorted(mod.BENCHMARKS)
    baseline = _records({name: 1.0 for name in names})
    same = mod.compare(baseline, _records({name: 1.05 for name in names}), 0.20)
    assert all(ln.startswith("ok") for ln in same)
    slow = mod.compare(baseline, _records({name: 1.5 for name in names}), 0.20)
    assert all(ln.startswith("REGRESSION") for ln in slow)
    fast = mod.compare(baseline, _records({name: 0.5 for name in names}), 0.20)
    assert all(ln.startswith("ok") for ln in fast)  # faster never fails
    assert all("baseline stale" in ln for ln in fast)
    missing = mod.compare({}, _records({name: 1.0 for name in names}), 0.20)
    assert all(ln.startswith("NEW") for ln in missing)


def test_fail_over_gates_looser_than_tolerance(tmp_path):
    """--fail-over reports at the normal tolerance but only fails the
    exit code beyond the (larger) fail-over fraction."""
    mod = _load_module()
    baseline = tmp_path / "bench.json"
    # A baseline 50x faster than reality: every bench then shows ~5000%
    # of baseline — far beyond --tolerance whatever the runner load, yet
    # far within an absurdly large --fail-over gate (big enough that no
    # cold-import or loaded-runner spike can reach it with --repeats 1).
    real = mod.measure(1)
    doc = {
        "schema": 2,
        "benchmarks": {
            name: {"best_s": rec["best_s"] / 50}
            for name, rec in real.items()
        },
    }
    baseline.write_text(json.dumps(doc))
    strict = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeats", "1",
         "--tolerance", "0.2", "--baseline", str(baseline)],
        capture_output=True, text=True, cwd=REPO,
    )
    assert strict.returncode == 1, strict.stdout + strict.stderr
    gated = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeats", "1",
         "--tolerance", "0.2", "--fail-over", "100000",
         "--baseline", str(baseline)],
        capture_output=True, text=True, cwd=REPO,
    )
    assert gated.returncode == 0, gated.stdout + gated.stderr
    # The verdict lines still show the strict-tolerance regressions.
    assert "REGRESSION" in gated.stdout


def test_update_then_compare_round_trip(tmp_path):
    baseline = tmp_path / "bench.json"
    update = subprocess.run(
        [sys.executable, str(SCRIPT), "--update", "--repeats", "1",
         "--baseline", str(baseline)],
        capture_output=True, text=True, cwd=REPO,
    )
    assert update.returncode == 0, update.stderr
    doc = json.loads(baseline.read_text())
    assert doc["schema"] == 2
    assert set(doc["benchmarks"]) == set(_load_module().BENCHMARKS)
    # A generous tolerance makes the immediate re-compare deterministic
    # even on a noisy box.
    compare = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeats", "1", "--tolerance", "10",
         "--baseline", str(baseline)],
        capture_output=True, text=True, cwd=REPO,
    )
    assert compare.returncode == 0, compare.stdout + compare.stderr


def test_missing_baseline_exits_2(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeats", "1",
         "--baseline", str(tmp_path / "nope.json")],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 2
    assert "cannot load baseline" in proc.stderr
