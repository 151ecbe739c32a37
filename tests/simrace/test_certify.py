"""Certifier: divergence diffing, memo clearing, argument checks."""

import functools
import json
import sys
import types

import pytest

from repro.core.experiment import ExperimentResult
from repro.obs import current_tracer
from repro.simrace.certify import (
    _clear_module_memoization,
    _execution_blob,
    certify_driver,
    first_divergence,
)


# -- first_divergence ---------------------------------------------------------

def test_first_divergence_none_when_equal():
    blob = {"result": {"rows": [1, 2]}, "counters": {"a": 3.0}}
    assert first_divergence(blob, json.loads(json.dumps(blob))) is None


def test_first_divergence_reports_path_and_values():
    a = {"result": {"rows": [1, 2]}, "counters": {"a": 3.0}}
    b = {"result": {"rows": [1, 5]}, "counters": {"a": 3.0}}
    path, base, perm = first_divergence(a, b)
    assert path == "$.result.rows[1]"
    assert (base, perm) == (2, 5)


def test_first_divergence_shape_mismatches():
    assert first_divergence([1], [1, 2])[0] == "$"
    path, base, perm = first_divergence({"a": 1}, {"b": 1})
    assert path == "$" and base == ["a"] and perm == ["b"]
    assert first_divergence(1, 1.0) is not None  # type mismatch


def test_first_divergence_finds_earliest_key_in_sorted_order():
    a = {"b": 1, "a": 1}
    b = {"b": 2, "a": 2}
    assert first_divergence(a, b)[0] == "$.a"


# -- memo clearing ------------------------------------------------------------

def test_clear_module_memoization_resets_lru_caches():
    mod = types.ModuleType("fake_driver")
    calls = []

    @functools.lru_cache(maxsize=1)
    def sweep():
        calls.append(1)
        return 42

    mod.sweep = sweep
    mod.plain = lambda: 0
    mod.data = [1, 2]
    assert mod.sweep() == 42 and mod.sweep() == 42
    assert len(calls) == 1
    _clear_module_memoization(mod)
    assert mod.sweep() == 42
    assert len(calls) == 2  # the cache was actually dropped


def test_execution_blob_defeats_a_warm_memo(monkeypatch):
    # A driver whose memoized sweep records a counter each time it runs,
    # like ext_resilience's _sweep. Left warm by an earlier run, the memo
    # would serve the sweep without re-running or re-recording it, so
    # certification would compare cached results and prove nothing.
    mod = types.ModuleType("fake_memo_driver")

    @functools.lru_cache(maxsize=1)
    def sweep():
        tracer = current_tracer()
        if tracer is not None:
            tracer.add("fake.sweeps", 0.0, 1.0)
        return 2.0

    def run():
        result = ExperimentResult(
            exp_id="fake", title="t", xlabel="x", ylabel="y", notes=""
        )
        result.add("XT4", [1], [sweep()])
        return result

    run.__module__ = mod.__name__
    mod.sweep, mod.run = sweep, run
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setattr("repro.core.registry.get_experiment", lambda _: run)
    run()  # warm the memo, as `repro all` would
    assert _execution_blob("fake")["counters"] == {"fake.sweeps": 1.0}


# -- certify_driver -----------------------------------------------------------

def test_certify_driver_k_validates():
    with pytest.raises(ValueError):
        certify_driver("fig08", k=0)
