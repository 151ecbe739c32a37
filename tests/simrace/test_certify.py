"""Certifier: divergence diffing, certificate cache, memo clearing."""

import functools
import json
import os
import subprocess
import sys
import types

import pytest

from repro.simrace.certify import (
    Certificate,
    CertificateCache,
    _clear_module_memoization,
    certificate_key,
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


# -- certificate cache --------------------------------------------------------

def _cert(**kw):
    base = dict(
        exp_id="fig08",
        title="t",
        schedule_invariant=True,
        k=4,
        base_seed=1,
        seeds=[1, 2, 3, 4],
        fingerprint="f",
    )
    base.update(kw)
    return Certificate(**base)


def test_cache_round_trip(tmp_path):
    cache = CertificateCache(tmp_path)
    key = "ab" + "0" * 62
    cert = _cert()
    path = cache.put(key, cert)
    assert path.parent.name == "ab"
    got = cache.get(key)
    assert got is not None and not got.from_cache
    assert got.to_dict() == cert.to_dict()


def test_cache_corruption_is_a_miss(tmp_path):
    cache = CertificateCache(tmp_path)
    key = "cd" + "0" * 62
    path = cache.put(key, _cert())
    path.write_text("{not json", encoding="utf-8")
    assert cache.get(key) is None


def test_cache_key_mismatch_is_a_miss(tmp_path):
    cache = CertificateCache(tmp_path)
    key_a = "ee" + "0" * 62
    key_b = "ee" + "1" * 62
    cache.put(key_a, _cert())
    # A file moved/copied to the wrong key must not serve.
    cache.path_for(key_b).parent.mkdir(parents=True, exist_ok=True)
    cache.path_for(key_b).write_text(
        cache.path_for(key_a).read_text(), encoding="utf-8"
    )
    assert cache.get(key_b) is None


def test_certificate_key_depends_on_parameters():
    base = certificate_key("fig08", 4, 1)
    assert certificate_key("fig08", 4, 1) == base
    assert certificate_key("fig08", 5, 1) != base
    assert certificate_key("fig08", 4, 2) != base
    assert certificate_key("fig02", 4, 1) != base


def _certificate_key_in(root):
    code = (
        "from repro.simrace.certify import certificate_key\n"
        "print(certificate_key('fig22', 4, 1))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(root)),
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


def test_model_edit_changes_certificate_key(repro_copy):
    # A certificate for a tree whose S3D model has since changed must
    # not be served: fig22's driver is untouched, its model is not.
    pristine = _certificate_key_in(repro_copy("pristine"))
    assert pristine == certificate_key("fig22", 4, 1)
    edited = _certificate_key_in(repro_copy("edited", edit="apps/s3d/model.py"))
    assert edited != pristine


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


def test_certifier_defeats_driver_memoization():
    # ext_resilience memoizes its sweep with @lru_cache; a cached sweep
    # would neither re-run under the permuted tie-break nor re-record
    # its counters. The certifier must re-execute it every time.
    import repro.experiments.ext_resilience as drv

    drv._sweep()  # warm the memo, as a prior `repro run` would
    cert = certify_driver("ext_resilience", k=1, cache=None)
    assert cert.schedule_invariant, cert.divergence


# -- certify_driver -----------------------------------------------------------

def test_certify_driver_invariant_and_cached(tmp_path):
    cache = CertificateCache(tmp_path)
    first = certify_driver("fig08", k=2, cache=cache)
    assert first.schedule_invariant
    assert not first.from_cache
    assert len(first.seeds) == 2
    second = certify_driver("fig08", k=2, cache=cache)
    assert second.from_cache
    assert second.to_dict() == first.to_dict()
    forced = certify_driver("fig08", k=2, cache=cache, force=True)
    assert not forced.from_cache


def test_certify_driver_k_validates():
    with pytest.raises(ValueError):
        certify_driver("fig08", k=0, cache=None)
