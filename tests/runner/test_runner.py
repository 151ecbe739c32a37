"""ExperimentRunner: caching, invalidation, cached/uncached equivalence."""

import os
import subprocess
import sys

import pytest

from repro.core import registry
from repro.core.report import render_csv, render_result
from repro.obs import Tracer
from repro.runner import ExperimentRunner, ResultCache

CHEAP = ["fig05", "table1"]


def _bomb_all_drivers(monkeypatch):
    """Replace every driver with one that fails the test."""
    for exp_id in registry.all_experiments():
        registry.get_experiment(exp_id)  # register the real one first

        def bomb(exp_id=exp_id):
            raise AssertionError(f"driver {exp_id} executed")
        monkeypatch.setitem(registry._REGISTRY, exp_id, bomb)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def test_cold_run_executes_and_caches(cache):
    runner = ExperimentRunner(cache)
    outcomes = runner.run(CHEAP)
    assert [o.exp_id for o in outcomes] == sorted(CHEAP)
    assert all(not o.from_cache for o in outcomes)
    assert (runner.hits, runner.misses) == (0, 2)
    assert cache.entries() == 2


def test_warm_run_executes_no_driver(cache, monkeypatch):
    cold = ExperimentRunner(cache).run(CHEAP)
    _bomb_all_drivers(monkeypatch)
    warm = ExperimentRunner(cache).run(CHEAP)
    assert all(o.from_cache for o in warm)
    for a, b in zip(cold, warm):
        assert render_csv(a.result) == render_csv(b.result)
        assert render_result(a.result) == render_result(b.result)


def test_force_re_executes(cache):
    ExperimentRunner(cache).run(CHEAP)
    runner = ExperimentRunner(cache, force=True)
    outcomes = runner.run(CHEAP)
    assert all(not o.from_cache for o in outcomes)
    assert (runner.hits, runner.misses) == (0, 2)


def test_no_cache_never_stores(tmp_path):
    runner = ExperimentRunner(None)
    outcomes = runner.run(CHEAP)
    assert all(not o.from_cache for o in outcomes)
    assert all(o.key is None for o in outcomes)
    again = ExperimentRunner(None).run(CHEAP)
    assert all(not o.from_cache for o in again)


#: Run in a copy of the tree: does the runner's key for fig05 hit the
#: cache at argv[1]?
HITS = """
import sys
from repro.runner import ExperimentRunner, ResultCache
runner = ExperimentRunner(ResultCache(sys.argv[1]))
print(runner.key_for("fig05") in runner.cache)
"""


def _hits_in(root, cache):
    """Whether the runner over the tree at ``root`` hits ``cache``."""
    proc = subprocess.run(
        [sys.executable, "-c", HITS, str(cache.root)],
        env=dict(os.environ, PYTHONPATH=str(root)),
        capture_output=True, text=True, check=True,
    )
    return {"True\n": True, "False\n": False}[proc.stdout]


def _edit_invalidates(cache, repro_copy, edit):
    ExperimentRunner(cache).run(["fig05"])
    return not _hits_in(repro_copy("edited", edit=edit), cache)


def test_unedited_copy_of_the_tree_hits(cache, repro_copy):
    ExperimentRunner(cache).run(["fig05"])
    assert _hits_in(repro_copy("pristine"), cache)


def test_driver_source_edit_invalidates(cache, repro_copy):
    assert _edit_invalidates(cache, repro_copy, "experiments/fig05_dgemm.py")


def test_machine_config_swap_invalidates(cache, repro_copy):
    assert _edit_invalidates(cache, repro_copy, "machine/configs.py")


def test_sweep_change_invalidates(cache, repro_copy):
    assert _edit_invalidates(cache, repro_copy, "experiments/common.py")


def test_version_bump_invalidates(cache, repro_copy):
    assert _edit_invalidates(cache, repro_copy, "version.py")


def test_model_edit_invalidates(cache, repro_copy):
    # fig05's driver is untouched: only the S3D model changed.
    assert _edit_invalidates(cache, repro_copy, "apps/s3d/model.py")


def test_fault_plan_invalidates_and_never_aliases(cache, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text('{"version": 1, "events": []}')
    fault_free = ExperimentRunner(cache).run(["table1"])
    faulted = ExperimentRunner(cache, faults_path=str(plan)).run(["table1"])
    assert not faulted[0].from_cache  # distinct key, no aliasing
    assert fault_free[0].key != faulted[0].key
    # Each variant warms its own entry.
    assert ExperimentRunner(cache).run(["table1"])[0].from_cache
    warm = ExperimentRunner(cache, faults_path=str(plan)).run(["table1"])
    assert warm[0].from_cache


def test_identical_inputs_hit_with_identical_bytes(cache):
    cold = ExperimentRunner(cache).run(["fig05"])
    warm = ExperimentRunner(cache).run(["fig05"])
    assert warm[0].from_cache
    assert warm[0].key == cold[0].key
    assert render_csv(warm[0].result) == render_csv(cold[0].result)
    assert render_result(warm[0].result) == render_result(cold[0].result)


def test_cached_run_matches_uncached_run(cache):
    ids = ["table1", "fig02", "fig05"]
    uncached = ExperimentRunner(None).run(ids)
    cold = ExperimentRunner(cache).run(ids)
    warm = ExperimentRunner(cache).run(ids)
    assert [o.exp_id for o in uncached] == ["fig02", "fig05", "table1"]
    for a, b, c in zip(uncached, cold, warm):
        assert a.exp_id == b.exp_id == c.exp_id and c.from_cache
        assert a.result.to_dict() == b.result.to_dict() == c.result.to_dict()


def test_runner_counters_reach_tracer(cache):
    tracer = Tracer()
    ExperimentRunner(cache, tracer=tracer).run(CHEAP)
    totals = tracer.counter_totals("runner.")
    assert totals["runner.cache.misses"] == 2.0
    assert "runner.cache.hits" not in totals
    assert totals["runner.exp[fig05].wall_s"] > 0.0
    warm_tracer = Tracer()
    ExperimentRunner(cache, tracer=warm_tracer).run(CHEAP)
    assert warm_tracer.counter_totals()["runner.cache.hits"] == 2.0


def test_trace_dir_bypasses_cache_and_writes_traces(cache, tmp_path):
    ExperimentRunner(cache).run(["fig02"])
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    runner = ExperimentRunner(cache, trace_dir=str(trace_dir))
    outcomes = runner.run(["fig02"])
    assert not outcomes[0].from_cache  # executed despite warm cache
    assert (trace_dir / "fig02.trace.json").is_file()
    assert cache.entries() == 1  # and nothing new was stored


def test_unknown_id_raises_with_known_list(cache):
    with pytest.raises(registry.UnknownExperimentError, match="known:"):
        ExperimentRunner(cache).run(["fig99"])
