"""Unit tests for the tracing core: spans, counters, installation."""

import pytest

from repro.obs import Tracer, current_tracer, install, installed, uninstall
from repro.obs.tracer import Counter
from repro.simengine import Delay, Simulator


# ------------------------------------------------------------------ counters
def test_accumulating_counter_integrates_out_of_order_deltas():
    c = Counter("bytes")
    # A transfer posting its completion in the future, then an earlier one.
    c.add(3.0, 10.0)
    c.add(1.0, 4.0)
    assert c.series() == [(1.0, 4.0), (3.0, 14.0)]
    assert c.total == 14.0


def test_accumulating_ties_keep_write_order():
    c = Counter("bw")
    c.add(1.0, 2.0)
    c.add(1.0, -2.0)
    assert c.series() == [(1.0, 2.0), (1.0, 0.0)]


def test_counter_totals_with_prefix_filter():
    t = Tracer()
    t.add("runner.cache.hits", 0.0, 1.0)
    t.add("runner.cache.hits", 1.0, 1.0)
    t.add("runner.cache.misses", 2.0, 1.0)
    t.add("runner.exp[fig05].wall_s", 0.0, 0.25)
    t.add("net.link.bytes", 0.0, 64.0)
    totals = t.counter_totals("runner.cache.")
    assert totals == {
        "runner.cache.hits": 2.0,
        "runner.cache.misses": 1.0,
    }
    assert t.counter_totals()["net.link.bytes"] == 64.0
    assert list(t.counter_totals()) == sorted(t.counter_totals())


def test_empty_counter_total_is_zero():
    assert Counter("x").total == 0.0


# ------------------------------------------------------------------ spans
def test_begin_end_complete():
    tr = Tracer()
    s = tr.begin("rank0", "mpi.send", 1.0, bytes=8)
    assert s.t1 is None and s.duration_s == 0.0
    tr.end(s, 2.5, ok=True)
    assert s.duration_s == 1.5
    assert s.args == {"bytes": 8, "ok": True}
    s2 = tr.complete("rank0", "mpi.recv", 3.0, 4.0)
    assert s2.duration_s == 1.0
    assert len(tr.spans) == 2


def test_span_end_validation():
    tr = Tracer()
    s = tr.begin("t", "a", 5.0)
    with pytest.raises(ValueError, match="before start"):
        tr.end(s, 4.0)
    tr.end(s, 6.0)
    with pytest.raises(ValueError, match="already ended"):
        tr.end(s, 7.0)


def test_span_context_manager_uses_clock():
    tr = Tracer()
    now = [1.0]
    with tr.span("t", "block", lambda: now[0]):
        now[0] = 3.0
    (s,) = tr.spans
    assert (s.t0, s.t1) == (1.0, 3.0)


def test_close_open_spans_and_end_time():
    tr = Tracer()
    tr.begin("t", "open", 1.0)
    tr.complete("t", "done", 0.0, 4.0)
    tr.add("c", 6.0, 1.0)
    assert tr.end_time == 6.0
    assert tr.close_open_spans(tr.end_time) == 1
    assert all(s.t1 is not None for s in tr.spans)


# ------------------------------------------------------------------ install
def test_installed_context_restores_previous():
    assert current_tracer() is None
    outer = install(Tracer())
    try:
        with installed() as inner:
            assert current_tracer() is inner
            assert inner is not outer
        assert current_tracer() is outer
    finally:
        uninstall()
    assert current_tracer() is None


def test_simulator_picks_up_installed_tracer():
    with installed() as tracer:
        sim = Simulator()
        assert sim.tracer is tracer

        def proc():
            yield Delay(1.0)

        sim.spawn(proc(), name="p")
        sim.run()
    # Engine bookkeeping records nothing: no process-lifetime span.
    assert tracer.spans == []
    # Outside the block new simulators are untraced again.
    assert Simulator().tracer is None


def test_explicit_tracer_beats_installed():
    mine = Tracer()
    with installed():
        assert Simulator(tracer=mine).tracer is mine
