"""SIGINT safety: deferral semantics and interrupt-proof publishes."""

import os
import signal

import pytest

from repro.core.experiment import ExperimentResult
from repro.runner import CacheEntry, ResultCache, defer_sigint

KEY = "cd" + "0" * 62


def _self_sigint():
    os.kill(os.getpid(), signal.SIGINT)


def _entry(key=KEY):
    r = ExperimentResult(
        exp_id="figX", title="t", xlabel="x", ylabel="y", notes=""
    )
    r.add("XT4", [1, 2], [1.0, 2.0])
    return CacheEntry(
        key=key, exp_id="figX", wall_s=0.1, passed=True, result=r
    )


def test_sigint_is_deferred_then_delivered():
    reached_end = False
    with pytest.raises(KeyboardInterrupt):
        with defer_sigint():
            _self_sigint()
            reached_end = True  # the block runs to completion first
    assert reached_end


def test_no_signal_means_no_interrupt():
    with defer_sigint():
        pass


def test_nested_blocks_deliver_once_at_the_outermost():
    order = []
    with pytest.raises(KeyboardInterrupt):
        with defer_sigint():
            with defer_sigint():
                _self_sigint()
                order.append("inner done")
            order.append("outer body done")
    assert order == ["inner done", "outer body done"]


def test_previous_handler_is_restored():
    before = signal.getsignal(signal.SIGINT)
    with defer_sigint():
        pass
    assert signal.getsignal(signal.SIGINT) is before


def test_custom_handler_receives_the_deferred_signal():
    hits = []
    previous = signal.signal(signal.SIGINT, lambda s, f: hits.append(s))
    try:
        with defer_sigint():
            _self_sigint()
        assert hits == [signal.SIGINT]
    finally:
        signal.signal(signal.SIGINT, previous)


def test_cache_put_survives_sigint_mid_publish(tmp_path, monkeypatch):
    """Ctrl-C landing inside the atomic publish: the entry still fully
    appears, no temp debris remains, and the interrupt is delivered."""
    cache = ResultCache(tmp_path / "c")
    real_replace = os.replace

    def interrupted_replace(src, dst):
        _self_sigint()  # parked: put() is inside defer_sigint
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted_replace)
    with pytest.raises(KeyboardInterrupt):
        cache.put(_entry())
    monkeypatch.undo()
    got = cache.get(KEY)
    assert got is not None and got.exp_id == "figX"
    assert not list((tmp_path / "c").rglob(".tmp-*"))


def test_corrupt_cache_entry_reads_as_miss(tmp_path):
    """Regression: torn entries (e.g. power loss mid-write on a
    filesystem without atomic rename) must read as misses, never raise."""
    cache = ResultCache(tmp_path / "c")
    path = cache.put(_entry())
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert cache.get(KEY) is None
    assert KEY not in cache
