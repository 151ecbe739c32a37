"""Tests of the end-to-end benchmark's attribution and correctness gate.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import ast
import json
import pstats
import shutil
import sys

import pytest

import layers
import run

REPRO = run.ROOT / "src" / "repro"
#: Subsystems the benchmark must not depend on: they may be deleted.
TOOLING = ("repro.simrace", "repro.prof", "repro.obs", "repro.campaign", "repro.lint")


def test_every_repro_file_maps_to_a_named_layer():
    mapped = {
        path.relative_to(REPRO).as_posix(): layers.repro_layer(path.relative_to(REPRO).as_posix())
        for path in REPRO.rglob("*.py")
    }
    assert [rel for rel, layer in mapped.items() if layer is None] == []
    assert set(mapped.values()) == set(layers.REPRO_LAYERS)


def test_builtin_called_from_repro_is_charged_to_the_callers_layer(tmp_path):
    root = tmp_path / "src" / "repro"
    kernel = (f"{root}/kernels/fft.py", 10, "fft")
    engine = (f"{root}/simengine/queue.py", 5, "push")
    stdlib_caller = ("/usr/lib/python3/heapq.py", 1, "heappush")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    stats = {
        kernel: (1, 1, 0.5, 1.0, {}),
        engine: (2, 2, 0.25, 0.4, {}),
        stdlib_caller: (1, 1, 0.01, 0.05, {engine: (1, 1, 0.01, 0.05)}),
        builtin: (5, 5, 0.4, 0.4, {
            kernel: (3, 3, 0.3, 0.3),
            engine: (1, 1, 0.06, 0.06),
            stdlib_caller: (1, 1, 0.04, 0.04),
        }),
    }
    self_s, calls = layers.attribute(stats, layers.classifier(root, tmp_path / "bench"))
    assert self_s["kernels"] == pytest.approx(0.8)
    assert calls["kernels"] == 4
    assert self_s["simengine"] == pytest.approx(0.32)
    assert calls["simengine"] == 4
    assert self_s["stdlib"] == pytest.approx(0.04)
    assert calls["stdlib"] == 1
    assert sum(self_s.values()) == pytest.approx(1.16)


def test_traced_analytic_op_layers_sum_to_the_profile_total(tmp_path):
    harness = run.Harness(tmp_path, run.ROOT / "results", run.HERE / "pinned.json", seed=1)
    profile = tmp_path / "op.prof"
    child = harness.child(harness.inproc_cfg("analytic_sweep", 0.0, profile))
    assert child.rc == 0, child.log.read_text()
    stats = pstats.Stats(str(profile))
    self_s, _ = layers.attribute(stats.stats, layers.classifier(REPRO, run.HERE))
    assert sum(self_s.values()) == pytest.approx(stats.total_tt, rel=0.01)
    assert self_s["apps"] > 0 and self_s["simengine"] == 0


def test_diff_tree_reports_one_changed_byte(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(run.ROOT / "results", out)
    assert run.diff_tree(out, run.ROOT / "results") == []
    _flip_last_digit(out / "fig22.txt")
    (out / "extra.csv").write_text("")
    assert run.diff_tree(out, run.ROOT / "results") == ["extra.csv", "fig22.txt"]


def _flip_last_digit(path):
    data = bytearray(path.read_bytes())
    last = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[last] = ord("1") if data[last] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def _run(capsys, workload, **refs):
    code = run.main(["--workload", workload, "--seconds", "0.2", "--seed", "3"], **refs)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, last


def test_changed_reference_byte_fails_the_op(tmp_path, capsys):
    refs = tmp_path / "results"
    shutil.copytree(run.ROOT / "results", refs)
    code, last = _run(capsys, "analytic_sweep", results_dir=refs)
    assert (code, last["correct"], last["failed"]) == (0, True, 0)

    _flip_last_digit(refs / "fig08.csv")
    code, last = _run(capsys, "analytic_sweep", results_dir=refs)
    assert code == 1
    assert not last["correct"]
    assert last["failed"] / last["attempted"] > 0


def test_changed_pinned_elapsed_fails_the_op(tmp_path, capsys):
    pins = json.loads((run.HERE / "pinned.json").read_text())
    pins["elapsed_s"]["lu"] *= 1 + 1e-12
    pins_path = tmp_path / "pinned.json"
    pins_path.write_text(json.dumps(pins))
    code, last = _run(capsys, "des_fault_free", pins_path=pins_path)
    assert code == 1
    assert not last["correct"]
    assert last["failed"] / last["attempted"] > 0


def test_no_result_without_the_program(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "warm_all", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            yield node.module, [alias.name for alias in node.names]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_benchmark_imports_only_stdlib_numpy_and_public_repro_api():
    local = {path.stem for path in run.HERE.glob("*.py")}
    allowed = set(sys.stdlib_module_names) | {"numpy", "pytest", "repro"} | local
    for path in run.HERE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for module, names in _imports(tree):
            assert module.split(".")[0] in allowed, (path.name, module)
            if module.startswith("repro"):
                assert not module.startswith(TOOLING), (path.name, module)
                assert not any(_private(part) for part in module.split(".") + names), (path.name, module)
        private = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and _private(node.attr)]
        assert private == [], path.name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    expected = run.per_layer_names(run.experiment_ids(run.ROOT / "results"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == expected
