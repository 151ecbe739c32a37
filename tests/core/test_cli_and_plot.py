"""Tests for the CLI and the ASCII plot renderer."""

import pytest

from repro.__main__ import main
from repro.core import ExperimentResult, registry
from repro.core.report import render_ascii_plot
from repro.faults import FaultPlan
from repro.obs import load_trace


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig08" in out and "table1" in out
    assert "Global High Performance LINPACK (HPL)" in out


def test_cli_list_executes_no_driver(capsys, monkeypatch):
    # Listing must be O(imports): titles come from the static manifest,
    # never from running the 26 simulated benchmark sweeps.
    for exp_id in registry.all_experiments():
        registry.get_experiment(exp_id)  # register the real driver first

        def bomb(exp_id=exp_id):
            raise AssertionError(f"driver {exp_id} executed by `list`")
        monkeypatch.setitem(registry._REGISTRY, exp_id, bomb)
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig05" in out and "SP/EP Matrix Multiply (DGEMM)" in out


def test_cli_run_pass(capsys):
    assert main(["run", "fig05"]) == 0
    out = capsys.readouterr().out
    assert "DGEMM" in out and "PASS" in out


def test_cli_run_with_plot(capsys):
    assert main(["run", "fig08", "--plot", "--logx"]) == 0
    out = capsys.readouterr().out
    assert "(log x)" in out


def test_cli_run_with_faults_records_injections(tmp_path, capsys):
    # `repro run --faults PLAN` installs the plan for every job the
    # experiment's DES companion builds: the trace counts what it injected.
    plan = str(tmp_path / "plan.json")
    FaultPlan.sample(
        horizon_s=1e-3, num_nodes=2, nic_mtbf_s=1e-4, seed=7
    ).save(plan)
    trace = str(tmp_path / "t.json")
    assert main(["run", "fig02", "--faults", plan, "--trace", trace]) == 0
    assert load_trace(trace).counters.get("faults.injected")


def test_cli_all_writes_csvs_and_txt(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cache_dir = tmp_path / "cache"
    assert main([
        "all", "--out", str(out_dir), "--cache-dir", str(cache_dir),
    ]) == 0
    csvs = list(out_dir.glob("*.csv"))
    txts = list(out_dir.glob("*.txt"))
    assert len(csvs) >= 23
    assert {p.stem for p in txts} == {p.stem for p in csvs}
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "26 misses" in out


def test_cli_all_warm_cache_is_byte_identical(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["--only", "fig05,table1", "--cache-dir", cache_dir]
    assert main(["all", "--out", str(tmp_path / "o1")] + args) == 0
    assert main(["all", "--out", str(tmp_path / "o2")] + args) == 0
    out = capsys.readouterr().out
    assert "2 hits, 0 misses" in out
    for p in sorted((tmp_path / "o1").iterdir()):
        assert p.read_bytes() == (tmp_path / "o2" / p.name).read_bytes()


def test_cli_all_report(tmp_path):
    import json

    report = tmp_path / "report.json"
    assert main([
        "all", "--only", "table1", "--out", str(tmp_path / "o"),
        "--cache-dir", str(tmp_path / "c"), "--report", str(report),
    ]) == 0
    data = json.loads(report.read_text())
    assert data["misses"] == 1 and data["hits"] == 0
    assert data["experiments"][0]["exp_id"] == "table1"
    assert data["experiments"][0]["status"] == "PASS"


def test_cli_unknown_experiment(capsys):
    # A typo'd id is a user error with a helpful message and exit code
    # 2 — not an uncaught KeyError traceback.
    assert main(["run", "fig99"]) == 2
    out = capsys.readouterr().out
    assert "unknown experiment 'fig99'" in out and "known:" in out


def test_cli_all_only_unknown_experiment(tmp_path, capsys):
    assert main([
        "all", "--only", "fig99", "--out", str(tmp_path / "o"),
    ]) == 2
    out = capsys.readouterr().out
    assert "unknown experiment 'fig99'" in out and "known:" in out
    assert not (tmp_path / "o" / "fig99.csv").exists()


def test_ascii_plot_renders_series():
    r = ExperimentResult("x", "T", xlabel="n", ylabel="v")
    r.add("a", [1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
    r.add("b", [1, 2, 3, 4], [4.0, 3.0, 2.0, 1.0])
    text = render_ascii_plot(r, width=30, height=8)
    assert "T" in text
    assert "o a" in text and "x b" in text
    assert "o" in text.splitlines()[1] or "x" in text.splitlines()[1]


def test_ascii_plot_skips_categorical_series():
    r = ExperimentResult("x", "T")
    r.add("cat", ["a", "b"], [1.0, 2.0])
    assert "no numeric series" in render_ascii_plot(r)


def test_ascii_plot_constant_series():
    r = ExperimentResult("x", "T")
    r.add("flat", [1, 2], [5.0, 5.0])
    text = render_ascii_plot(r, width=20, height=5)
    assert "flat" in text
